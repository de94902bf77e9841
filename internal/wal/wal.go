// Package wal is the durable half of the batch-dynamic write path: a
// per-dataset write-ahead log of update batches. The semi-asymmetric
// design keeps the authoritative graph in a read-only container file and
// every mutation in a DRAM-resident overlay, which means a crash loses
// the overlay — unless the batches that built it were made durable
// first. The WAL records exactly that: each applied batch is encoded as
// a length-prefixed, CRC-checksummed record and fsynced before the
// overlay becomes visible, so a restarted server can replay surviving
// records onto the last durable container generation.
//
// # One writer
//
// A Log has a single writer: one goroutine at a time appends, commits,
// truncates, sizes and closes (the server's per-dataset committer role).
// Paying the expensive flush once per window of changes, never per
// change, is therefore the caller's business: AppendBuffer assigns the
// batch its sequence number and writes the record; Commit fsyncs once,
// making every record appended so far durable. A batch is durable
// exactly when a Commit at or after it returns nil; there is no weaker
// policy. Because fsync makes the whole file durable (a prefix, never a
// subset), a failed flush cannot leave holes: the log truncates back to
// the last durable offset, rewinds its sequence counter, and keeps the
// failure sticky until a later append's probe fsync succeeds; the writer
// drops the failed window's tickets and starts over from its published
// state.
//
// The log owns no goroutine and no mutex. Only Stats, which /metrics
// reads, may run beside the writer; its two counters are atomics. Size
// is a writer-side call like the rest.
//
// # Layout
//
// One file per dataset, at <dataset path> + ".wal":
//
//	header (48 B): magic "SAGEWAL2" | version u32 | segment index u32 |
//	               base size u64 | base crc u32 | reserved u32 |
//	               prev last seq u64 | prev segment length u64
//	record*:       payload len u32 | payload crc32c u32 |
//	               payload (seq u64 | nops u32 | ops...)
//	op (13 B):     u u32 | v u32 | w i32 | flags u8 (bit0 = del)
//
// All integers are little-endian. The segment index is always 1 and the
// prev fields always 0: they are what remains of an earlier format that
// rotated the log into a numbered chain, kept so the bytes stay the same.
// The header's base fingerprint ties the file to the container
// generation its records apply onto: a compaction writes a new container
// and retires the log, and if the process dies between those two steps
// the stale log's fingerprint no longer matches the (new) container, so
// replay discards it instead of applying already-folded batches twice.
//
// # Recovery
//
// Open checks the header and replays records in order. The first short,
// oversized, or checksum-failing record — a torn tail from a crash
// mid-append — cuts the log there and the tail is truncated. Everything
// before the cut is intact, so recovery always yields a prefix of the
// appended batches. A sealed segment <path>.1 left by a build that
// rotated the log makes Open fail instead: its batches were acknowledged,
// and this log neither replays a chain nor drops them unseen.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
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

// Options configures Open.
type Options struct {
	// FS is the filesystem the log lives on; nil means the real one.
	FS FS
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
// sequence number, and the offset its record ends at (for surgical
// truncation when a batch fails to re-apply).
type Batch struct {
	Seq    uint64
	Ops    []Op
	EndOff int64
}

// Recovery reports what Open found in an existing log.
type Recovery struct {
	// Batches are the surviving records in append order.
	Batches []Batch
	// Discarded reports that the whole log was dropped: its header was
	// corrupt or foreign, or its base fingerprint did not match the
	// container (a compaction retired the base after these records were
	// folded in).
	Discarded bool
	// TornBytes counts the bytes dropped from the tail, from the first bad
	// record on.
	TornBytes int64
}

// Pending is one appended batch's commit ticket — its sequence number.
// AppendBuffer issues it and Commit takes it; it belongs to the Log that
// issued it, and a ticket whose window failed is dropped, not retried.
type Pending struct{ seq uint64 }

// Log is one dataset's write-ahead log. It has one writer (see the
// package comment); only Stats may be called from elsewhere.
type Log struct {
	fs   FS
	path string
	base Fingerprint

	f          File
	goodOff    int64  // end of the last fully appended record
	curOff     int64  // bytes physically written (>= goodOff after a failed append)
	seq        uint64 // last assigned sequence number
	durableOff int64  // prefix of the file known flushed
	durableSeq uint64 // last sequence number known flushed
	syncErr    error  // sticky flush failure; cleared by a later success
	closed     bool

	// The only fields read off the writer's goroutine (by Stats).
	groupSyncs   atomic.Int64
	groupBatches atomic.Int64
}

// Stats is a point-in-time snapshot of a log's commit activity.
type Stats struct {
	GroupSyncs   int64 // fsyncs taken by Commit
	GroupBatches int64 // batches made durable by Commit: ÷ GroupSyncs is the mean window
}

// Stats reports the log's commit counters. It is safe to call beside
// the writer.
func (l *Log) Stats() Stats {
	return Stats{GroupSyncs: l.groupSyncs.Load(), GroupBatches: l.groupBatches.Load()}
}

// encodeHeader is the header this log writes for base: segment index 1
// and zero predecessor links, the only values a single-file log has.
func encodeHeader(base Fingerprint) []byte {
	hdr := make([]byte, headerSize)
	copy(hdr, magic)
	le := binary.LittleEndian
	le.PutUint32(hdr[8:], walVersion)
	le.PutUint32(hdr[12:], 1)
	le.PutUint64(hdr[16:], base.Size)
	le.PutUint32(hdr[24:], base.CRC)
	return hdr
}

// Open opens (creating if absent) the log at path for the container
// generation identified by base, replaying surviving records. A log whose
// header is not exactly the one this log writes for base — corrupt, from
// another container generation, or a later segment of a rotated log — is
// discarded and reinitialized; a torn or corrupt tail is cut at the first
// bad record. The returned log appends after the last good record,
// continuing its sequence numbering.
//
// Open refuses, touching nothing, when a sealed segment <path>.1 of a
// rotated log sits beside the file: it holds acknowledged batches that
// this log can neither replay nor silently drop.
func Open(path string, base Fingerprint, opts Options) (*Log, Recovery, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = OS
	}
	var rec Recovery
	sealed := path + ".1"
	if _, err := fsys.Stat(sealed); err == nil {
		return nil, rec, fmt.Errorf("wal: %s is a sealed segment of a rotated log and holds "+
			"acknowledged batches this version cannot replay; compact the dataset with the "+
			"version that wrote it, or remove the file to drop them", sealed)
	}
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, rec, fmt.Errorf("wal: opening %s: %w", path, err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		_ = f.Close()
		return nil, rec, fmt.Errorf("wal: reading %s: %w", path, err)
	}
	l := &Log{fs: fsys, path: path, base: base, f: f}
	if err := l.replay(data, &rec); err != nil {
		_ = f.Close()
		return nil, rec, err
	}
	l.durableOff, l.durableSeq = l.goodOff, l.seq
	return l, rec, nil
}

// replay checks the header of data — the file's contents — and decodes
// records up to the first short, oversized, checksum-failing or
// out-of-sequence one, truncating the torn tail there. Everything before the cut is intact, so recovery always
// yields a prefix of the appended batches: the state either before or
// after any given batch, never a hybrid. On return l.f is positioned at
// l.goodOff.
func (l *Log) replay(data []byte, rec *Recovery) error {
	if len(data) == 0 {
		return l.writeHeader(false)
	}
	if len(data) < headerSize || !bytes.Equal(data[:headerSize], encodeHeader(l.base)) {
		// None of its records may replay onto this base. A torn header
		// lost nothing: it is fsynced before any record lands.
		rec.Discarded = true
		return l.reset()
	}
	off := int64(headerSize)
	for int64(len(data)) > off {
		n, batch, ok := decodeRecord(data, off)
		if !ok || batch.Seq != l.seq+1 {
			break
		}
		batch.EndOff = off + n
		rec.Batches = append(rec.Batches, batch)
		l.seq++
		off += n
	}
	if torn := int64(len(data)) - off; torn > 0 {
		rec.TornBytes = torn
		if err := l.f.Truncate(off); err != nil {
			return fmt.Errorf("wal: truncating torn tail of %s: %w", l.path, err)
		}
	}
	if _, err := l.f.Seek(off, io.SeekStart); err != nil {
		return err
	}
	l.goodOff, l.curOff = off, off
	return nil
}

// reset discards every record: the file is rewritten as a fresh
// header for the current base.
func (l *Log) reset() error {
	if err := l.writeHeader(true); err != nil {
		return err
	}
	l.seq, l.durableSeq = 0, 0
	l.durableOff = headerSize
	return nil
}

// writeHeader writes the header for the current base, after cutting
// the file to nothing when truncate is set. The header is synced
// immediately, not at the next Commit — it is written once per file and
// a lost header would orphan every later record.
func (l *Log) writeHeader(truncate bool) error {
	if truncate {
		if err := l.f.Truncate(0); err != nil {
			return fmt.Errorf("wal: resetting %s: %w", l.path, err)
		}
		if _, err := l.f.Seek(0, io.SeekStart); err != nil {
			return err
		}
	}
	if _, err := l.f.Write(encodeHeader(l.base)); err != nil {
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

// AppendBuffer writes one batch's record at the end of the log,
// assigning it the next sequence number, and returns its commit ticket.
// The batch is NOT durable until a Commit at or after the ticket
// returns nil. The second parameter is unused: it chained
// a batch onto an earlier ticket when the log had concurrent callers, and
// stays in the signature only until the benchmark probe, which passes a
// literal nil, can be edited.
//
// On error nothing was appended; the log cleans any partial record off
// the tail (now, or on the next append if the disk refuses even the
// truncate).
//
//sage:durable
func (l *Log) AppendBuffer(ops []Op, _ *Pending) (*Pending, error) {
	if l.closed {
		return nil, ErrClosed
	}
	// A torn record on the tail would truncate every later record at
	// replay, so it must be gone before anything new is written.
	if l.curOff != l.goodOff {
		if err := l.truncateToGood(); err != nil {
			return nil, fmt.Errorf("wal: clearing torn tail: %w", err)
		}
	}
	if l.syncErr != nil {
		// Probe the disk before accepting more work.
		if err := l.f.Sync(); err != nil {
			return nil, fmt.Errorf("wal: flush still failing: %w", err)
		}
		l.flushed()
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
		l.truncateToGood()
		return nil, fmt.Errorf("wal: appending batch: %w", werr)
	}
	l.seq = p.seq
	l.goodOff = l.curOff
	return p, nil
}

// Commit makes p's batch — and every record appended before or since —
// durable with one fsync, or does nothing when it already is (an earlier
// Commit covered it). On a failed fsync the log truncates back to its
// durable prefix, rewinds the sequence counter and keeps the error
// sticky: the disk cannot say which of the window's records it kept, so
// none of them may become visible.
// A ticket withdrawn by such a rollback reports the failure that
// withdrew it.
//
//sage:durable
//sage:durable-append
func (l *Log) Commit(p *Pending) error {
	if p == nil {
		return nil
	}
	switch {
	case p.seq <= l.durableSeq:
		return nil
	case p.seq > l.seq:
		return fmt.Errorf("wal: batch %d was rolled back: %w", p.seq, l.syncErr)
	case l.closed:
		return ErrClosed
	}
	l.groupSyncs.Add(1)
	if err := l.f.Sync(); err != nil {
		l.rollback(err)
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.flushed()
	return nil
}

// flushed records a successful fsync of the log:
// everything appended so far is durable and the sticky error is healed.
func (l *Log) flushed() {
	l.groupBatches.Add(int64(l.seq - l.durableSeq))
	l.durableOff, l.durableSeq = l.goodOff, l.seq
	l.syncErr = nil
}

// rollback handles a failed flush: the file is cut back to its
// durable prefix and the sequence counter rewinds with it — records
// between the durable prefix and the failure cannot be told apart, so
// all of them are withdrawn.
func (l *Log) rollback(cause error) {
	l.goodOff, l.seq, l.syncErr = l.durableOff, l.durableSeq, cause
	// If the truncate fails, curOff stays ahead of goodOff and the next
	// append clears the tail before writing.
	l.truncateToGood()
}

// truncateToGood cuts the log back to the last good record.
func (l *Log) truncateToGood() error {
	if err := l.f.Truncate(l.goodOff); err != nil {
		return err
	}
	if _, err := l.f.Seek(l.goodOff, io.SeekStart); err != nil {
		return err
	}
	l.curOff = l.goodOff
	return nil
}

// Size returns the log's logical size (through the last good
// record). It is the writer's call, like every method but Stats.
func (l *Log) Size() int64 {
	return l.goodOff
}

// TruncateTo cuts the log back to b — the last batch that should
// survive (the zero Batch for none). Recovery uses it when a logged
// batch fails to re-apply, treating everything from that record on like
// a corrupt tail. Like every mutation it is the writer's call, made
// between windows.
//
//sage:durable
func (l *Log) TruncateTo(b Batch) error {
	if l.closed {
		return ErrClosed
	}
	if b.Seq == 0 {
		return l.reset()
	}
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
}

// HeaderSize returns the offset of the first record.
func HeaderSize() int64 { return headerSize }

// Close flushes appended records and closes the log.
func (l *Log) Close() error {
	if l.closed {
		return ErrClosed
	}
	l.closed = true
	var first error
	if l.seq > l.durableSeq {
		if first = l.f.Sync(); first == nil {
			l.flushed()
		}
	}
	if err := l.f.Close(); first == nil {
		first = err
	}
	return first
}

// CloseAndRemove retires the log: close, delete the file, and sync the
// directory. Compaction calls it after the new container generation is
// durably in place — from then on replaying these records would
// double-apply them (and their fingerprint no longer matches, so even a
// crash between the container rename and this removal is safe).
//
//sage:durable
func (l *Log) CloseAndRemove() error {
	err := l.Close()
	if err != nil && !errors.Is(err, ErrClosed) {
		// Close-flush failure does not matter for a file being deleted.
		err = nil
	}
	if rerr := l.fs.Remove(l.path); rerr != nil && !os.IsNotExist(rerr) {
		return rerr
	}
	l.fs.SyncDir(filepath.Dir(l.path))
	return err
}
