package graph

import (
	"encoding/binary"
	"io"
)

// Array and sizing helpers shared by the section container (format.go)
// and the text reader (textio.go).

// remainingSize reports how many bytes remain in r when that is
// discoverable without consuming input: seekable readers (files) and
// in-memory readers exposing Len. Unknown sizes return sized=false and
// skip the pre-allocation check (truncation still surfaces as an
// io.ErrUnexpectedEOF from the array reads).
func remainingSize(r io.Reader) (int64, bool) {
	switch v := r.(type) {
	case io.Seeker:
		cur, err := v.Seek(0, io.SeekCurrent)
		if err != nil {
			return 0, false
		}
		end, err := v.Seek(0, io.SeekEnd)
		if err != nil {
			return 0, false
		}
		if _, err := v.Seek(cur, io.SeekStart); err != nil {
			return 0, false
		}
		return end - cur, true
	case interface{ Len() int }:
		return int64(v.Len()), true
	}
	return 0, false
}

const ioChunk = 1 << 16

func writeUint64s(w io.Writer, a []uint64) error {
	buf := make([]byte, 8*ioChunk)
	for len(a) > 0 {
		k := min(len(a), ioChunk)
		for i := 0; i < k; i++ {
			binary.LittleEndian.PutUint64(buf[8*i:], a[i])
		}
		if _, err := w.Write(buf[:8*k]); err != nil {
			return err
		}
		a = a[k:]
	}
	return nil
}

func writeUint32s(w io.Writer, a []uint32) error {
	buf := make([]byte, 4*ioChunk)
	for len(a) > 0 {
		k := min(len(a), ioChunk)
		for i := 0; i < k; i++ {
			binary.LittleEndian.PutUint32(buf[4*i:], a[i])
		}
		if _, err := w.Write(buf[:4*k]); err != nil {
			return err
		}
		a = a[k:]
	}
	return nil
}

func writeInt32s(w io.Writer, a []int32) error {
	buf := make([]byte, 4*ioChunk)
	for len(a) > 0 {
		k := min(len(a), ioChunk)
		for i := 0; i < k; i++ {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(a[i]))
		}
		if _, err := w.Write(buf[:4*k]); err != nil {
			return err
		}
		a = a[k:]
	}
	return nil
}
