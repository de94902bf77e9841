// Package wal is the durable half of the batch-dynamic write path: a
// per-dataset write-ahead log of update batches. The semi-asymmetric
// design keeps the authoritative graph in a read-only container file and
// every mutation in a DRAM-resident overlay, which means a crash loses
// the overlay — unless the batches that built it were made durable
// first. The WAL records exactly that: each applied batch is encoded as
// a length-prefixed, CRC-checksummed record and (per a configurable
// fsync policy) flushed to storage before the overlay becomes visible,
// so a restarted server can replay surviving records onto the last
// durable container generation.
//
// # One writer
//
// A Log has a single writer: one goroutine at a time appends, commits,
// truncates and closes (the server's per-dataset committer role). Paying
// the expensive flush once per window of changes, never per change, is
// therefore the caller's business: AppendBuffer assigns the batch its
// sequence number and writes the record; Commit fsyncs once, making
// every record appended so far durable. Under SyncAlways a batch is
// durable exactly when a Commit at or after it returns nil. Because fsync
// makes the whole file durable (a prefix, never a subset), a failed flush
// cannot leave holes: the log truncates back to the last durable offset,
// rewinds its sequence counter, and keeps the failure sticky until a
// later append's probe fsync succeeds; the writer drops the failed
// window's tickets and starts over from its published state.
//
// Two things may run beside the writer, and the log's mutex exists only
// for them: the SyncInterval policy's background flusher (the package's
// one goroutine) and the accessors Stats and Size, which /metrics reads.
//
// # Segment layout and rotation
//
// One log chain per dataset. The active segment lives at
// <dataset path> + ".wal"; when Options.SegmentBytes caps its size, a
// full segment is sealed by renaming it to <path>.1, <path>.2, … and a
// fresh active segment continues the chain. Each segment:
//
//	header (48 B): magic "SAGEWAL2" | version u32 | segment index u32 |
//	               base size u64 | base crc u32 | reserved u32 |
//	               prev last seq u64 | prev segment length u64
//	record*:       payload len u32 | payload crc32c u32 |
//	               payload (seq u64 | nops u32 | ops...)
//	op (13 B):     u u32 | v u32 | w i32 | flags u8 (bit0 = del)
//
// All integers are little-endian. The header's base fingerprint ties the
// segment to the container generation its records apply onto: a
// compaction writes a new container and retires the chain, and if the
// process dies between those two steps the stale segments' fingerprints
// no longer match the (new) container, so replay discards them instead
// of applying already-folded batches twice. The prev fields link each
// segment to its predecessor (last sequence number and byte length), so
// recovery can verify the chain is whole before trusting it. Segment
// indices are 1-based and the active segment's index always equals the
// sealed count plus one.
//
// # Recovery
//
// Open enumerates the sealed chain (a consecutive <path>.1..K prefix by
// construction), verifies every header and link, and replays records in
// chain order, enforcing sequence continuity across boundaries. The
// first short, oversized, or checksum-failing record — a torn tail from
// a crash mid-append — cuts the chain there: in the active segment the
// tail is truncated; inside a sealed segment the later segments are
// removed and the cut segment, truncated to its last good record,
// becomes the active segment again. Everything before the cut is intact,
// so recovery always yields a prefix of the appended batches: the state
// either before or after any given batch, never a hybrid. A crash
// between rotation steps (sealed chain present, active missing or its
// header torn) is also just a prefix: the header is fsynced before any
// record lands in a segment, so a torn active header proves the segment
// held nothing acknowledged.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

const (
	magic        = "SAGEWAL2"
	walVersion   = 2
	headerSize   = 48
	recHeader    = 8        // payload length u32 + crc32c u32
	opSize       = 13       // u u32 + v u32 + w i32 + flags u8
	maxRecordLen = 64 << 20 // sanity bound on one record's payload
	// fingerprintSpan bounds how much of the container file the base
	// fingerprint hashes (a prefix and a suffix): enough to distinguish
	// container generations without re-reading a multi-GB graph at open.
	fingerprintSpan = 256 << 10
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed reports use of a closed log.
var ErrClosed = errors.New("wal: log is closed")

// SyncPolicy selects when appended records reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs in Commit: a batch is durable before its overlay
	// becomes visible. The default.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs from a background flusher every Interval:
	// bounded data loss (at most one interval of batches) for much
	// cheaper appends.
	SyncInterval
	// SyncNever leaves flushing to the operating system entirely.
	SyncNever
)

// String returns the flag spelling of the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParsePolicy parses the flag spelling ("always", "interval", "never").
func ParsePolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval, or never)", s)
}

// Options configures Open.
type Options struct {
	// FS is the filesystem the log lives on; nil means the real one.
	FS FS
	// Policy selects when appends are fsynced (default SyncAlways).
	Policy SyncPolicy
	// Interval is the background flush period under SyncInterval
	// (default 100ms).
	Interval time.Duration
	// SegmentBytes caps the active segment: an append that would push it
	// past the cap first seals it into the numbered chain and starts a
	// fresh segment. 0 disables rotation. A single record larger than
	// the cap still fits — it gets a segment of its own.
	SegmentBytes int64
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = OS
	}
	if o.Interval <= 0 {
		o.Interval = 100 * time.Millisecond
	}
	return o
}

// Fingerprint identifies one container generation: the file's size plus
// a CRC of its leading and trailing bytes. Compaction rewrites the
// container, changing the fingerprint, which is how replay tells records
// meant for the previous generation from live ones.
type Fingerprint struct {
	Size uint64
	CRC  uint32
}

// FingerprintFile fingerprints the container at path through fsys.
func FingerprintFile(fsys FS, path string) (Fingerprint, error) {
	if fsys == nil {
		fsys = OS
	}
	info, err := fsys.Stat(path)
	if err != nil {
		return Fingerprint{}, err
	}
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return Fingerprint{}, err
	}
	defer f.Close()
	size := info.Size()
	span := int64(fingerprintSpan)
	crc := crc32.New(castagnoli)
	if size <= 2*span {
		if _, err := io.Copy(crc, f); err != nil {
			return Fingerprint{}, err
		}
	} else {
		if _, err := io.CopyN(crc, f, span); err != nil {
			return Fingerprint{}, err
		}
		if _, err := f.Seek(size-span, io.SeekStart); err != nil {
			return Fingerprint{}, err
		}
		if _, err := io.Copy(crc, f); err != nil {
			return Fingerprint{}, err
		}
	}
	return Fingerprint{Size: uint64(size), CRC: crc.Sum32()}, nil
}

// Op is one undirected edge mutation, mirroring the overlay's op type.
type Op struct {
	U, V uint32
	W    int32
	Del  bool
}

// Batch is one replayed record: the ops of one update batch, its
// sequence number within the chain, the segment it lives in, and the
// offset its record ends at within that segment (for surgical truncation
// when a batch fails to re-apply).
type Batch struct {
	Seq    uint64
	Ops    []Op
	Seg    int
	EndOff int64
}

// Recovery reports what Open found in an existing chain.
type Recovery struct {
	// Batches are the surviving records in append order.
	Batches []Batch
	// Discarded reports that a whole stale chain was dropped: a header
	// was corrupt, a link was broken, or the base fingerprint did not
	// match the container (a compaction retired the base after these
	// records were folded in).
	Discarded bool
	// TornBytes counts record bytes dropped at the chain cut — the torn
	// tail of the active segment, or everything from the first bad
	// record on when the cut lands inside a sealed segment.
	TornBytes int64
}

// SegmentPath names the j-th sealed segment of the chain rooted at the
// active path: <path>.1, <path>.2, ...
func SegmentPath(path string, j int) string {
	return fmt.Sprintf("%s.%d", path, j)
}

// Pending is one appended batch's commit ticket — its sequence number.
// AppendBuffer issues it and Commit takes it; it belongs to the Log that
// issued it, and a ticket whose window failed is dropped, not retried.
type Pending struct{ seq uint64 }

// Log is one dataset's write-ahead chain. It has one writer (see the
// package comment); only Stats and Size may be called from elsewhere.
type Log struct {
	fs   FS
	path string
	base Fingerprint
	opts Options

	mu         sync.Mutex // the writer against the interval flusher and Stats/Size
	f          File       // the active segment (nil only after dieLocked)
	segIdx     uint32     // active segment's header index == sealed count + 1
	goodOff    int64      // end of the last fully appended record (active segment)
	curOff     int64      // bytes physically written (>= goodOff after a failed append)
	seq        uint64     // last assigned sequence number (chain-global)
	durableOff int64      // prefix of the active segment known flushed
	durableSeq uint64     // last sequence number known flushed
	syncErr    error      // sticky flush failure; cleared by a later success
	closed     bool

	rotations    int64
	groupSyncs   int64
	groupBatches int64

	stop chan struct{}
	done chan struct{}
}

// Stats is a point-in-time snapshot of a log's chain shape and commit
// activity.
type Stats struct {
	Segments     int   // files in the chain: sealed segments plus the active one
	Rotations    int64 // segments sealed since this log opened
	GroupSyncs   int64 // fsyncs taken by Commit
	GroupBatches int64 // batches made durable under SyncAlways: ÷ GroupSyncs is the mean window
}

// Stats reports the log's chain shape and commit counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Segments:     int(l.segIdx),
		Rotations:    l.rotations,
		GroupSyncs:   l.groupSyncs,
		GroupBatches: l.groupBatches,
	}
}

// header is the decoded form of a segment header.
type header struct {
	index   uint32
	prevSeq uint64
	prevLen uint64
}

// parseHeader decodes and validates data's header against base. ok is
// false when the header is unreadable (short, wrong magic or version);
// stale is true when it parses but names another container generation.
func parseHeader(data []byte, base Fingerprint) (h header, ok, stale bool) {
	if len(data) < headerSize || string(data[:8]) != magic {
		return h, false, false
	}
	le := binary.LittleEndian
	if le.Uint32(data[8:]) != walVersion {
		return h, false, false
	}
	if h.index = le.Uint32(data[12:]); h.index == 0 { // indices are 1-based
		return h, false, false
	}
	h.prevSeq = le.Uint64(data[32:])
	h.prevLen = le.Uint64(data[40:])
	if le.Uint64(data[16:]) != base.Size || le.Uint32(data[24:]) != base.CRC {
		return h, true, true
	}
	return h, true, false
}

// Open opens (creating if absent) the chain rooted at path for the
// container generation identified by base, replaying surviving records
// in chain order. A chain whose headers are corrupt, whose links are
// broken, or whose fingerprints do not match base is discarded and
// reinitialized; a torn or corrupt tail cuts the chain at the first bad
// record. The returned log appends after the last good record,
// continuing its sequence numbering.
func Open(path string, base Fingerprint, opts Options) (*Log, Recovery, error) {
	opts = opts.withDefaults()
	var rec Recovery
	f, err := opts.FS.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, rec, fmt.Errorf("wal: opening %s: %w", path, err)
	}
	active, err := io.ReadAll(f)
	if err != nil {
		_ = f.Close()
		return nil, rec, fmt.Errorf("wal: reading %s: %w", path, err)
	}
	// The sealed chain is a consecutive 1..K prefix by construction:
	// sealing appends at the top, retirement removes from the top.
	var sealed [][]byte
	for {
		sp := SegmentPath(path, len(sealed)+1)
		if _, err := opts.FS.Stat(sp); err != nil {
			break
		}
		sf, err := opts.FS.OpenFile(sp, os.O_RDONLY, 0)
		if err != nil {
			_ = f.Close()
			return nil, rec, fmt.Errorf("wal: opening %s: %w", sp, err)
		}
		data, rerr := io.ReadAll(sf)
		if cerr := sf.Close(); rerr == nil {
			rerr = cerr
		}
		if rerr != nil {
			_ = f.Close()
			return nil, rec, fmt.Errorf("wal: reading %s: %w", sp, rerr)
		}
		sealed = append(sealed, data)
	}

	l := &Log{fs: opts.FS, path: path, base: base, opts: opts, f: f, segIdx: 1}
	if err := l.recoverChain(sealed, active, &rec); err != nil {
		if l.f != nil {
			_ = l.f.Close()
		}
		return nil, rec, err
	}
	l.durableOff, l.durableSeq = l.goodOff, l.seq
	if opts.Policy == SyncInterval {
		l.stop = make(chan struct{})
		l.done = make(chan struct{})
		go l.flushLoop()
	}
	return l, rec, nil
}

// recoverChain validates headers and links, replays records in chain
// order, and repairs whatever a crash (or corruption) left behind. On
// return l.f is the open active segment positioned at l.goodOff.
func (l *Log) recoverChain(sealed [][]byte, active []byte, rec *Recovery) error {
	// Headers first: the chain's fate is decided as a whole. A sealed
	// segment is written and fsynced in full before it joins the chain,
	// so an unreadable or foreign header there means the entire chain
	// predates the current container generation.
	heads := make([]header, len(sealed))
	for i, data := range sealed {
		h, ok, stale := parseHeader(data, l.base)
		if !ok || stale || h.index != uint32(i+1) {
			rec.Discarded = true
			return l.resetChainLocked(len(sealed))
		}
		heads[i] = h
	}
	activeIdx := len(sealed) + 1
	var ah header
	haveActive := false
	if len(active) > 0 {
		h, ok, stale := parseHeader(active, l.base)
		switch {
		case stale:
			rec.Discarded = true
			return l.resetChainLocked(len(sealed))
		case !ok && len(sealed) == 0:
			// Garbage where the only segment's header should be.
			rec.Discarded = true
			return l.resetChainLocked(0)
		case !ok:
			// Torn active header from a crash mid-rotation: the header
			// is fsynced before any record lands, so nothing
			// acknowledged lives here. Recreate it below; the sealed
			// records still count.
		case int(h.index) <= len(sealed):
			// A crash mid-retirement left sealed segments at or above
			// the active's index: the active header is the authority —
			// those files were condemned before it was (re)written.
			for j := len(sealed); j >= int(h.index); j-- {
				if err := l.removeSeg(j); err != nil {
					return err
				}
			}
			l.fs.SyncDir(filepath.Dir(l.path))
			sealed = sealed[:h.index-1]
			heads = heads[:h.index-1]
			activeIdx = int(h.index)
			ah, haveActive = h, true
		case int(h.index) == len(sealed)+1:
			ah, haveActive = h, true
		default:
			// index > sealed count + 1: a sealed segment vanished, so
			// the surviving records have a sequence gap. Nothing here
			// can be trusted.
			rec.Discarded = true
			return l.resetChainLocked(len(sealed))
		}
	}

	// Replay in chain order, enforcing link and sequence continuity at
	// every boundary.
	expSeq := uint64(0)
	prevLen := uint64(0)
	for i, data := range sealed {
		if heads[i].prevSeq != expSeq || heads[i].prevLen != prevLen {
			rec.Discarded = true
			rec.Batches = nil
			return l.resetChainLocked(len(sealed))
		}
		off := int64(headerSize)
		for int64(len(data)) > off {
			n, batch, ok := decodeRecord(data, off)
			if !ok || batch.Seq != expSeq+1 {
				break
			}
			batch.Seg, batch.EndOff = i+1, off+n
			rec.Batches = append(rec.Batches, batch)
			expSeq++
			off += n
		}
		if off < int64(len(data)) {
			// Corruption inside a sealed segment: the rest of the chain
			// is unreachable (sequence gap). Cut here — this segment,
			// truncated to its last good record, becomes the active
			// segment again.
			rec.TornBytes = chainBytesAfter(sealed[i:], active, off)
			return l.cutChainLocked(i+1, off, expSeq, len(sealed))
		}
		prevLen = uint64(len(data))
	}

	if !haveActive {
		// Fresh log, or a crash between sealing a segment and creating
		// its successor (or a torn active header). Start the next
		// segment of the chain; the sealed prefix survives as-is.
		l.segIdx = uint32(activeIdx)
		l.seq = expSeq
		return l.initActiveLocked(uint32(activeIdx), expSeq, prevLen, len(active) > 0)
	}
	if ah.prevSeq != expSeq || ah.prevLen != prevLen {
		rec.Discarded = true
		rec.Batches = nil
		return l.resetChainLocked(len(sealed))
	}
	off := int64(headerSize)
	for int64(len(active)) > off {
		n, batch, ok := decodeRecord(active, off)
		if !ok || batch.Seq != expSeq+1 {
			break
		}
		batch.Seg, batch.EndOff = activeIdx, off+n
		rec.Batches = append(rec.Batches, batch)
		expSeq++
		off += n
	}
	if torn := int64(len(active)) - off; torn > 0 {
		rec.TornBytes = torn
		if err := l.f.Truncate(off); err != nil {
			return fmt.Errorf("wal: truncating torn tail of %s: %w", l.path, err)
		}
	}
	if _, err := l.f.Seek(off, io.SeekStart); err != nil {
		return err
	}
	l.segIdx = uint32(activeIdx)
	l.seq = expSeq
	l.goodOff, l.curOff = off, off
	return nil
}

// chainBytesAfter totals the record bytes a chain cut drops: the rest of
// the cut segment (segs[0], from off), every later sealed segment's
// records, and the active segment's records.
func chainBytesAfter(segs [][]byte, active []byte, off int64) int64 {
	total := int64(len(segs[0])) - off
	for _, data := range segs[1:] {
		if n := int64(len(data)) - headerSize; n > 0 {
			total += n
		}
	}
	if n := int64(len(active)) - headerSize; n > 0 {
		total += n
	}
	return total
}

// resetChainLocked discards the whole chain: the active segment is
// rewritten as a fresh index-1 header for the current base, then the
// sealed files are removed from the top down. Ordering matters for
// crash safety — once the active header is durable it is the authority,
// so a crash mid-removal leaves orphans above its index that the next
// recovery deletes without replaying.
func (l *Log) resetChainLocked(sealedCount int) error {
	if err := l.initActiveLocked(1, 0, 0, true); err != nil {
		return err
	}
	for j := sealedCount; j >= 1; j-- {
		if err := l.removeSeg(j); err != nil {
			return err
		}
	}
	l.fs.SyncDir(filepath.Dir(l.path))
	l.segIdx = 1
	l.seq, l.durableSeq = 0, 0
	l.durableOff = headerSize
	return nil
}

// cutChainLocked truncates the chain after the record ending at endOff
// in sealed segment seg: later sealed segments and the active segment
// are removed, and the cut segment becomes the active one. The active
// file is removed first so every crash point leaves a state recovery
// already handles (a sealed prefix with no active resumes from the
// prefix and re-finds this same cut).
func (l *Log) cutChainLocked(seg int, endOff int64, lastSeq uint64, sealedCount int) error {
	dir := filepath.Dir(l.path)
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: closing active segment during chain cut: %w", err)
	}
	l.f = nil
	if err := l.fs.Remove(l.path); err != nil && !os.IsNotExist(err) {
		return err
	}
	for j := sealedCount; j > seg; j-- {
		if err := l.removeSeg(j); err != nil {
			return err
		}
	}
	l.fs.SyncDir(dir)
	sp := SegmentPath(l.path, seg)
	sf, err := l.fs.OpenFile(sp, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	if err := sf.Truncate(endOff); err != nil {
		_ = sf.Close()
		return err
	}
	if err := sf.Sync(); err != nil {
		_ = sf.Close()
		return err
	}
	if err := sf.Close(); err != nil {
		return err
	}
	if err := l.fs.Rename(sp, l.path); err != nil {
		return err
	}
	l.fs.SyncDir(dir)
	f, err := l.fs.OpenFile(l.path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	if _, err := f.Seek(endOff, io.SeekStart); err != nil {
		_ = f.Close()
		return err
	}
	l.f = f
	l.segIdx = uint32(seg)
	l.seq = lastSeq
	l.goodOff, l.curOff = endOff, endOff
	l.durableOff, l.durableSeq = endOff, lastSeq
	return nil
}

// removeSeg deletes sealed segment j, tolerating its absence.
func (l *Log) removeSeg(j int) error {
	if err := l.fs.Remove(SegmentPath(l.path, j)); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// initActiveLocked (re)writes the active segment's header: index, the
// link to its predecessor, and the base fingerprint. The header is
// synced immediately regardless of policy — it is written once per
// segment and a lost header would orphan every later record.
func (l *Log) initActiveLocked(index uint32, prevSeq, prevLen uint64, truncate bool) error {
	if truncate {
		if err := l.f.Truncate(0); err != nil {
			return fmt.Errorf("wal: resetting segment %s: %w", l.path, err)
		}
		if _, err := l.f.Seek(0, io.SeekStart); err != nil {
			return err
		}
	}
	hdr := make([]byte, headerSize)
	copy(hdr, magic)
	le := binary.LittleEndian
	le.PutUint32(hdr[8:], walVersion)
	le.PutUint32(hdr[12:], index)
	le.PutUint64(hdr[16:], l.base.Size)
	le.PutUint32(hdr[24:], l.base.CRC)
	le.PutUint64(hdr[32:], prevSeq)
	le.PutUint64(hdr[40:], prevLen)
	if _, err := l.f.Write(hdr); err != nil {
		return fmt.Errorf("wal: writing header of %s: %w", l.path, err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: syncing header of %s: %w", l.path, err)
	}
	l.fs.SyncDir(filepath.Dir(l.path))
	l.goodOff, l.curOff = headerSize, headerSize
	return nil
}

// decodeRecord decodes the record at off, returning its total length.
// ok is false for a short, oversized, or checksum-failing record — the
// torn-tail signal.
func decodeRecord(data []byte, off int64) (n int64, batch Batch, ok bool) {
	le := binary.LittleEndian
	rest := data[off:]
	if len(rest) < recHeader {
		return 0, batch, false
	}
	plen := le.Uint32(rest)
	if plen > maxRecordLen || int64(len(rest)) < recHeader+int64(plen) {
		return 0, batch, false
	}
	payload := rest[recHeader : recHeader+int(plen)]
	if crc32.Checksum(payload, castagnoli) != le.Uint32(rest[4:]) {
		return 0, batch, false
	}
	if len(payload) < 12 {
		return 0, batch, false
	}
	batch.Seq = le.Uint64(payload)
	nops := le.Uint32(payload[8:])
	if int(nops)*opSize != len(payload)-12 {
		return 0, batch, false
	}
	batch.Ops = make([]Op, nops)
	for i := range batch.Ops {
		p := payload[12+i*opSize:]
		batch.Ops[i] = Op{
			U:   le.Uint32(p),
			V:   le.Uint32(p[4:]),
			W:   int32(le.Uint32(p[8:])),
			Del: p[12]&1 != 0,
		}
	}
	return recHeader + int64(plen), batch, true
}

// encodeRecord builds the on-disk form of one batch.
func encodeRecord(seq uint64, ops []Op) []byte {
	le := binary.LittleEndian
	plen := 12 + len(ops)*opSize
	buf := make([]byte, recHeader+plen)
	payload := buf[recHeader:]
	le.PutUint64(payload, seq)
	le.PutUint32(payload[8:], uint32(len(ops)))
	for i, op := range ops {
		p := payload[12+i*opSize:]
		le.PutUint32(p, op.U)
		le.PutUint32(p[4:], op.V)
		le.PutUint32(p[8:], uint32(op.W))
		if op.Del {
			p[12] = 1
		}
	}
	le.PutUint32(buf, uint32(plen))
	le.PutUint32(buf[4:], crc32.Checksum(payload, castagnoli))
	return buf
}

// recordLen is the on-disk size of a batch of len(ops) ops.
func recordLen(ops []Op) int64 {
	return int64(recHeader + 12 + len(ops)*opSize)
}

// AppendBuffer writes one batch's record into the active segment,
// assigning it the next sequence number, and returns its commit ticket.
// Under SyncAlways the batch is NOT durable until a Commit at or after
// the ticket returns nil; under the interval/never policies durability
// is the flusher's business. The second parameter is unused: it chained
// a batch onto an earlier ticket when the log had concurrent callers, and
// stays in the signature only until the benchmark probe, which passes a
// literal nil, can be edited.
//
// On error nothing was appended; the log cleans any partial record off
// the tail (now, or on the next append if the disk refuses even the
// truncate). A failed rotation flush also withdraws the records appended
// since the last Commit — their Commit then reports the failure.
//
//sage:durable
func (l *Log) AppendBuffer(ops []Op, _ *Pending) (*Pending, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	// A torn record on the tail would truncate every later record at
	// replay, so it must be gone before anything new is written.
	if l.curOff != l.goodOff {
		if err := l.truncateToGoodLocked(); err != nil {
			return nil, fmt.Errorf("wal: clearing torn tail: %w", err)
		}
	}
	if l.syncErr != nil {
		// Probe the disk before accepting more work.
		if err := l.f.Sync(); err != nil {
			return nil, fmt.Errorf("wal: flush still failing: %w", err)
		}
		l.flushedLocked()
	}
	if l.opts.SegmentBytes > 0 && l.goodOff > headerSize &&
		l.goodOff+recordLen(ops) > l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return nil, err
		}
	}

	p := &Pending{seq: l.seq + 1}
	rec := encodeRecord(p.seq, ops)
	n, werr := l.f.Write(rec)
	l.curOff += int64(n)
	if werr == nil && n < len(rec) {
		werr = io.ErrShortWrite
	}
	if werr != nil {
		// Best-effort cleanup; the next append retries it if this fails.
		l.truncateToGoodLocked()
		return nil, fmt.Errorf("wal: appending batch: %w", werr)
	}
	l.seq = p.seq
	l.goodOff = l.curOff
	return p, nil
}

// Commit makes p's batch — and every record appended before or since —
// durable with one fsync, or does nothing when it already is (an earlier
// Commit or a rotation covered it) or the policy is not SyncAlways. On a
// failed fsync the log truncates back to its durable prefix, rewinds the
// sequence counter and keeps the error sticky: the disk cannot say which
// of the window's records it kept, so none of them may become visible.
// A ticket withdrawn by such a rollback reports the failure that
// withdrew it.
//
//sage:durable
//sage:durable-append
func (l *Log) Commit(p *Pending) error {
	if p == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.opts.Policy != SyncAlways || p.seq <= l.durableSeq:
		return nil
	case p.seq > l.seq:
		return fmt.Errorf("wal: batch %d was rolled back: %w", p.seq, l.syncErr)
	case l.closed:
		return ErrClosed
	}
	l.groupSyncs++
	if err := l.f.Sync(); err != nil {
		l.rollbackLocked(err)
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.flushedLocked()
	return nil
}

// flushedLocked records a successful fsync of the active segment:
// everything appended so far is durable and the sticky error is healed.
func (l *Log) flushedLocked() {
	if l.opts.Policy == SyncAlways {
		l.groupBatches += int64(l.seq - l.durableSeq)
	}
	l.durableOff, l.durableSeq = l.goodOff, l.seq
	l.syncErr = nil
}

// rollbackLocked handles a failed flush: the file is cut back to its
// durable prefix and the sequence counter rewinds with it — records
// between the durable prefix and the failure cannot be told apart, so
// all of them are withdrawn.
func (l *Log) rollbackLocked(cause error) {
	l.goodOff, l.seq, l.syncErr = l.durableOff, l.durableSeq, cause
	// If the truncate fails, curOff stays ahead of goodOff and the next
	// append clears the tail before writing.
	l.truncateToGoodLocked()
}

// rotateLocked seals the active segment into the numbered chain and
// starts its successor. The seal fsync doubles as the flush for every
// record still waiting on its Commit.
func (l *Log) rotateLocked() error {
	if err := l.f.Sync(); err != nil {
		l.rollbackLocked(err)
		return fmt.Errorf("wal: sealing segment: %w", err)
	}
	l.flushedLocked()
	sealedLen := uint64(l.goodOff)
	prevSeq := l.seq
	if err := l.f.Close(); err != nil {
		l.dieLocked()
		return fmt.Errorf("wal: sealing segment: %w", err)
	}
	l.f = nil
	sp := SegmentPath(l.path, int(l.segIdx))
	if err := l.fs.Rename(l.path, sp); err != nil {
		// The rename never happened; reattach to the still-named active
		// segment and report the rotation failed. The log stays usable.
		f, oerr := l.fs.OpenFile(l.path, os.O_RDWR, 0)
		if oerr != nil {
			l.dieLocked()
			return fmt.Errorf("wal: rotating segment: %w", err)
		}
		if _, serr := f.Seek(l.goodOff, io.SeekStart); serr != nil {
			_ = f.Close()
			l.dieLocked()
			return fmt.Errorf("wal: rotating segment: %w", err)
		}
		l.f = f
		return fmt.Errorf("wal: rotating segment: %w", err)
	}
	l.fs.SyncDir(filepath.Dir(l.path))
	f, err := l.fs.OpenFile(l.path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		l.dieLocked()
		return fmt.Errorf("wal: rotating segment: %w", err)
	}
	l.f = f
	l.segIdx++
	if err := l.initActiveLocked(l.segIdx, prevSeq, sealedLen, false); err != nil {
		l.dieLocked()
		return err
	}
	l.durableOff, l.durableSeq = headerSize, prevSeq
	l.rotations++
	return nil
}

// dieLocked marks the log unusable after a rotation left the file
// detached (closed, or renamed with no replacement). Every record was
// sealed durable just before, and the on-disk chain stays fully
// recoverable — callers reopen from disk via Open.
func (l *Log) dieLocked() {
	l.closed = true
	if l.f != nil {
		_ = l.f.Close()
		l.f = nil
	}
	if l.stop != nil {
		close(l.stop)
		l.stop = nil
	}
}

// truncateToGoodLocked cuts the active segment back to the last good record.
func (l *Log) truncateToGoodLocked() error {
	if err := l.f.Truncate(l.goodOff); err != nil {
		return err
	}
	if _, err := l.f.Seek(l.goodOff, io.SeekStart); err != nil {
		return err
	}
	l.curOff = l.goodOff
	return nil
}

// flushLoop is the SyncInterval background flusher.
func (l *Log) flushLoop() {
	defer close(l.done)
	t := time.NewTicker(l.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.mu.Lock()
			if l.seq > l.durableSeq && !l.closed {
				if err := l.f.Sync(); err != nil {
					l.syncErr = err
				} else {
					l.flushedLocked()
				}
			}
			l.mu.Unlock()
		}
	}
}

// Size returns the active segment's logical size (through the last good
// record).
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.goodOff
}

// TruncateTo cuts the chain back to b — the last batch that should
// survive (the zero Batch for none). Recovery uses it when a logged
// batch fails to re-apply, treating everything from that record on like
// a corrupt tail: a cut inside a sealed segment removes the later
// segments and reinstates the cut one as active. Like every mutation it
// is the writer's call, made between windows.
//
//sage:durable
func (l *Log) TruncateTo(b Batch) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	switch {
	case b.Seq == 0:
		return l.resetChainLocked(int(l.segIdx) - 1)
	case b.Seg == int(l.segIdx):
		if b.EndOff < headerSize || b.EndOff > l.goodOff {
			return fmt.Errorf("wal: TruncateTo(%d) outside [%d, %d]", b.EndOff, headerSize, l.goodOff)
		}
		if err := l.f.Truncate(b.EndOff); err != nil {
			return err
		}
		if _, err := l.f.Seek(b.EndOff, io.SeekStart); err != nil {
			return err
		}
		l.goodOff, l.curOff = b.EndOff, b.EndOff
		l.seq = b.Seq
		if err := l.f.Sync(); err != nil {
			return err
		}
		l.durableOff, l.durableSeq = b.EndOff, b.Seq
		return nil
	case b.Seg >= 1 && b.Seg < int(l.segIdx):
		return l.cutChainLocked(b.Seg, b.EndOff, b.Seq, int(l.segIdx)-1)
	}
	return fmt.Errorf("wal: TruncateTo batch in unknown segment %d of %d", b.Seg, l.segIdx)
}

// HeaderSize returns the offset of the first record in any segment.
func HeaderSize() int64 { return headerSize }

// Close flushes appended records (unless SyncNever) and closes the
// active segment.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	l.closed = true
	stop, done := l.stop, l.done
	var first error
	if l.seq > l.durableSeq && l.opts.Policy != SyncNever {
		if first = l.f.Sync(); first == nil {
			l.flushedLocked()
		}
	}
	if err := l.f.Close(); first == nil {
		first = err
	}
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	return first
}

// CloseAndRemove retires the chain: close, delete every segment, and
// sync the directory. Compaction calls it after the new container
// generation is durably in place — from then on replaying these records
// would double-apply them (and their fingerprints no longer match, so
// even a crash between the container rename and this removal is safe).
// The active file goes first, then the sealed segments from the top
// down, so a crash mid-removal leaves a consecutive prefix with no
// orphans.
//
//sage:durable
func (l *Log) CloseAndRemove() error {
	l.mu.Lock()
	sealedCount := int(l.segIdx) - 1
	l.mu.Unlock()
	err := l.Close()
	if err != nil && !errors.Is(err, ErrClosed) {
		// Close-flush failure does not matter for files being deleted.
		err = nil
	}
	if rerr := l.fs.Remove(l.path); rerr != nil && !os.IsNotExist(rerr) {
		return rerr
	}
	for j := sealedCount; j >= 1; j-- {
		if rerr := l.fs.Remove(SegmentPath(l.path, j)); rerr != nil && !os.IsNotExist(rerr) {
			return rerr
		}
	}
	l.fs.SyncDir(filepath.Dir(l.path))
	return err
}
