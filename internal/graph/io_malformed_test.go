package graph

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// TestContainerMalformed covers the v2 framing validation.
func TestContainerMalformed(t *testing.T) {
	g := FromEdges(3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}}, BuildOpts{Symmetrize: true})
	var buf bytes.Buffer
	if err := WriteContainer(&buf, Sections(g)); err != nil {
		t.Fatal(err)
	}
	base := buf.Bytes()

	if _, err := ParseContainer(base[:10]); err == nil {
		t.Error("short container accepted")
	}
	b := append([]byte(nil), base...)
	b[0] ^= 0xff
	if _, err := ParseContainer(b); err == nil {
		t.Error("bad magic accepted")
	}
	b = append([]byte(nil), base...)
	binary.LittleEndian.PutUint64(b[8:], 1<<20) // implausible section count
	if _, err := ParseContainer(b); err == nil {
		t.Error("huge section count accepted")
	}
	b = append([]byte(nil), base...)
	binary.LittleEndian.PutUint64(b[16+8:], uint64(len(b))) // first section offset at EOF
	if _, err := ParseContainer(b); err == nil || !strings.Contains(err.Error(), "outside file") {
		t.Errorf("out-of-bounds section: %v", err)
	}
	b = append([]byte(nil), base...)
	binary.LittleEndian.PutUint64(b[16+8:], 20) // misaligned offset
	if _, err := ParseContainer(b); err == nil || !strings.Contains(err.Error(), "misaligned") {
		t.Errorf("misaligned section: %v", err)
	}

	// A header lying about m must be caught by the section-length check.
	secs, err := ParseContainer(base)
	if err != nil {
		t.Fatal(err)
	}
	h, err := ParseHeader(secs)
	if err != nil {
		t.Fatal(err)
	}
	h.M += 100
	if _, err := CSRFromSections(secs, h, false); err == nil {
		t.Error("edge-count mismatch accepted")
	}
}

// TestFromPartsValidation pins the structural checks.
func TestFromPartsValidation(t *testing.T) {
	if _, err := FromParts(2, 2, []uint64{0, 1, 2}, []uint32{1, 0}, nil); err != nil {
		t.Fatalf("valid parts rejected: %v", err)
	}
	if _, err := FromParts(2, 2, []uint64{0, 2, 1}, []uint32{1, 0}, nil); err == nil {
		t.Error("non-monotone offsets accepted")
	}
	if _, err := FromParts(2, 2, []uint64{0, 1}, []uint32{1, 0}, nil); err == nil {
		t.Error("short offsets accepted")
	}
	if _, err := FromParts(2, 3, []uint64{0, 1, 2}, []uint32{1, 0}, nil); err == nil {
		t.Error("m mismatch accepted")
	}
	if _, err := FromParts(2, 2, []uint64{0, 1, 2}, []uint32{1, 0}, []int32{7}); err == nil {
		t.Error("short weights accepted")
	}
}
