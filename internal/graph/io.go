package graph

import (
	"io"
	"slices"
	"unsafe"
)

// wordWriter streams little-endian words through one 64 KiB buffer,
// allocated by the first put and handed to w each time it fills: O(1)
// heap however many calls feed it. The first write error sticks.
type wordWriter struct {
	w   io.Writer
	buf []byte
	err error
}

// put appends xs, each as a little-endian word of its own width: a run of
// words is one copy of its bytes, each word then reversed on big-endian
// hosts.
func put[T uint32 | int32 | uint64](ww *wordWriter, xs ...T) {
	size := int(unsafe.Sizeof(T(0)))
	for len(xs) > 0 {
		if cap(ww.buf)-len(ww.buf) < size {
			ww.flush()
		}
		k, at := min(len(xs), (cap(ww.buf)-len(ww.buf))/size), len(ww.buf)
		ww.buf = append(ww.buf, unsafe.Slice((*byte)(unsafe.Pointer(&xs[0])), k*size)...)
		for i := at; !hostLittleEndian && i < len(ww.buf); i += size {
			slices.Reverse(ww.buf[i : i+size])
		}
		xs = xs[k:]
	}
}

// flush hands the buffered bytes to w and returns the first error.
func (ww *wordWriter) flush() error {
	if ww.err == nil && len(ww.buf) > 0 {
		_, ww.err = ww.w.Write(ww.buf)
	}
	ww.buf = slices.Grow(ww.buf[:0], 1<<16)
	return ww.err
}
