package main

// What the run can say about the machine it ran on, and the process-level
// probes: resident memory, a CPU spin loop that detects a noisy
// neighbour, and a bare write+fsync on the data directory.

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// machineInfo is recorded in every report so a number is never read
// without the machine that produced it.
type machineInfo struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Caches     string `json:"caches"`
	DataDir    string `json:"data_dir"`
	DataDirFS  string `json:"data_dir_fs"`
	// Note states what this sandbox cannot show.
	Note string `json:"note"`
}

func machine(dataDir string) machineInfo {
	return machineInfo{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Caches:     cacheSizes(),
		DataDir:    dataDir,
		DataDirFS:  fsType(dataDir),
		Note:       "web18's 32 MB container is 4x the two L2s; a shared L3 larger than every graph here cannot be exceeded in a sandbox, so no number below includes DRAM-miss traffic",
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cacheSizes lists cpu0's caches as sysfs reports them ("L1d 48K, ...").
func cacheSizes() string {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var parts []string
	for _, d := range dirs {
		read := func(name string) string {
			b, _ := os.ReadFile(filepath.Join(d, name))
			return strings.TrimSpace(string(b))
		}
		level, typ, size := read("level"), read("type"), read("size")
		if size == "" {
			continue
		}
		suffix := ""
		switch typ {
		case "Data":
			suffix = "d"
		case "Instruction":
			suffix = "i"
		}
		parts = append(parts, "L"+level+suffix+" "+size)
	}
	if len(parts) == 0 {
		return "unknown"
	}
	return strings.Join(parts, ", ")
}

// fsType names the filesystem holding path: the longest mount-point
// prefix in /proc/mounts.
func fsType(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, typ := "", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mp := fields[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, fields[2]
		}
	}
	return typ
}

// gitLabel names the results file: the short commit when the working
// directory is a git checkout, else "worktree".
func gitLabel() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil || len(out) == 0 {
		return "worktree"
	}
	return strings.TrimSpace(string(out))
}

// settle brings the heap to a known state before a measured phase and
// restarts the kernel's resident-set high-water mark, so peak_rss_mb
// covers the measured phase and not the input generator.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
	// "5" resets VmHWM to the current RSS (proc(5)). Where the write is
	// refused the mark keeps covering set-up too; the number is then an
	// upper bound, which is still comparable between two commits.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the resident-set high-water mark (VmHWM) in MB; 0 when
// /proc is absent.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// spinSink keeps the spin loop's result alive.
var spinSink uint64

// spinMops runs a fixed integer loop nine times and returns the lower
// quartile of the rates in Mops/s. The loop touches no memory, so its rate
// falls only when something else takes the CPU or its clock drops. Lone
// readings run a quarter fast on this host now and then, which says
// nothing about the workload; the lower quartile ignores them, and a
// brief steal that hits one or two of the nine as well. Two results more
// than 10% apart around a workload mark it noisy. What the guard cannot
// see is in README.md under "Steadiness".
func spinMops() float64 {
	const iters = 10_000_000
	rates := make([]float64, 9)
	for try := range rates {
		x := uint64(88172645463325252)
		start := time.Now()
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		spinSink = x
		rates[try] = iters / time.Since(start).Seconds() / 1e6
	}
	return percentile(sortedCopy(rates), 25)
}

// fsyncProbeUS is the median cost in microseconds of appending 64 bytes
// and fsyncing a file in dir: the device floor under every durable
// update.
func fsyncProbeUS(dir string, rounds int) (float64, error) {
	f, err := os.CreateTemp(dir, "fsync-probe-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 64)
	us := make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		start := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
	}
	return median(us), nil
}
