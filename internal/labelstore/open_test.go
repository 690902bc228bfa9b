package labelstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// v2Fixture encodes a power-law graph with the pipeline (arena-backed) and
// returns the graph, the labeling, and the serialized v2 store image.
func v2Fixture(t *testing.T, n int, seed int64) (*core.Labeling, []byte) {
	t.Helper()
	g, err := gen.ChungLuPowerLaw(n, 2.5, 2, seed)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := core.NewPowerLawScheme(2.5).Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	slab, ok := lab.Arena()
	if !ok {
		t.Fatal("pipeline labeling is not arena-backed")
	}
	bitLens := make([]int, g.N())
	for v := range bitLens {
		l, err := lab.Label(v)
		if err != nil {
			t.Fatal(err)
		}
		bitLens[v] = l.Len()
	}
	f, err := NewArenaFile(lab.Scheme(), map[string]string{"n": "x"}, slab, bitLens)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	return lab, buf.Bytes()
}

func writeTemp(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.pllb")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReadBytesMatchesRead: ReadBytes over an in-memory image and Read over
// a stream of it agree on every field of a v2 store, and the in-memory arena
// is the file's body verbatim (zero-copy: a sub-slice of the input).
func TestReadBytesMatchesRead(t *testing.T) {
	_, data := v2Fixture(t, 200, 5)
	a, err := ReadBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if a.Scheme != b.Scheme || a.N() != b.N() || a.Params["n"] != b.Params["n"] {
		t.Fatalf("header mismatch: %q/%d vs %q/%d", a.Scheme, a.N(), b.Scheme, b.N())
	}
	for v := range a.Labels {
		if !a.Labels[v].Equal(b.Labels[v]) {
			t.Fatalf("label %d differs between ReadBytes and Read", v)
		}
	}
	arena, _, ok := a.Arena()
	if !ok {
		t.Fatal("ReadBytes lost the arena")
	}
	// Zero-copy: the arena must be the tail of the input slice, not a copy.
	if len(arena) > 0 && &arena[0] != &data[len(data)-len(arena)] {
		t.Error("ReadBytes copied the blob instead of adopting it")
	}
}

// TestOpenServesQueries: an Open'ed v2 store feeds the query engine directly
// and answers exactly like the original labeling. On Linux the store must be
// a live mapping (the zero-copy startup path).
func TestOpenServesQueries(t *testing.T) {
	lab, data := v2Fixture(t, 300, 7)
	mf, err := Open(writeTemp(t, data))
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	if runtime.GOOS == "linux" && !mf.Mapped() {
		t.Error("v2 store on linux should be memory-mapped")
	}
	slab, bitLens, ok := mf.Arena()
	if !ok {
		t.Fatal("opened v2 store has no arena")
	}
	eng, err := core.NewQueryEngineFromArena(slab, bitLens)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < lab.N(); u += 5 {
		for v := u + 1; v < lab.N(); v += 3 {
			want, err := lab.Adjacent(u, v)
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.Adjacent(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("mmap engine (%d,%d) = %v, want %v", u, v, got, want)
			}
		}
	}
	if err := mf.Close(); err != nil {
		t.Fatal(err)
	}
	if mf.Mapped() {
		t.Error("Mapped() true after Close")
	}
	if err := mf.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestOpenV1Fallback: a v1 store opens through the copying path — usable,
// but not mapped.
func TestOpenV1Fallback(t *testing.T) {
	f := sampleFile(t)
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	mf, err := Open(writeTemp(t, buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	if mf.Mapped() {
		t.Error("v1 store claims a mapping")
	}
	if mf.N() != f.N() {
		t.Fatalf("N = %d, want %d", mf.N(), f.N())
	}
	for i := range f.Labels {
		if !mf.Labels[i].Equal(f.Labels[i]) {
			t.Fatalf("label %d differs after Open of v1 store", i)
		}
	}
}

// TestOpenRejectsTruncation: a v2 file cut anywhere inside the body (or the
// header) must fail at Open — never surface a partially-backed arena that
// would fault at query time.
func TestOpenRejectsTruncation(t *testing.T) {
	_, data := v2Fixture(t, 150, 3)
	for _, keep := range []int{len(data) - 1, len(data) - 17, len(data) / 2, 10, 4, 0} {
		mf, err := Open(writeTemp(t, data[:keep]))
		if err == nil {
			mf.Close()
			t.Fatalf("truncated store of %d/%d bytes opened without error", keep, len(data))
		}
		if keep > 5 && !errors.Is(err, ErrFormat) {
			t.Errorf("truncation at %d: err = %v, want ErrFormat", keep, err)
		}
	}
}

// corruptBlobLen returns a copy of a v2 image whose blob-length uvarint is
// rewritten by delta bytes (the field sits immediately before the body blob,
// which is blobBytes long).
func corruptBlobLen(t *testing.T, data []byte, blobBytes int, newLen uint64) []byte {
	t.Helper()
	var lenField [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenField[:], newLen)
	head := data[: len(data)-blobBytes-uvarintLen(uint64(blobBytes)) : len(data)-blobBytes-uvarintLen(uint64(blobBytes))]
	out := append(append(append([]byte{}, head...), lenField[:n]...), data[len(data)-blobBytes:]...)
	return out
}

func uvarintLen(v uint64) int {
	var buf [binary.MaxVarintLen64]byte
	return binary.PutUvarint(buf[:], v)
}

// TestBlobLengthMismatchRejected: Read and ReadBytes reject a blob-length field
// that disagrees with the declared bit lengths, in both directions, before
// constructing any views.
func TestBlobLengthMismatchRejected(t *testing.T) {
	lab, data := v2Fixture(t, 120, 11)
	slab, _ := lab.Arena()
	for _, wrong := range []uint64{0, uint64(len(slab) - 8), uint64(len(slab) + 8), uint64(len(slab)) * 3} {
		bad := corruptBlobLen(t, data, len(slab), wrong)
		if _, err := ReadBytes(bad); !errors.Is(err, ErrFormat) {
			t.Errorf("ReadBytes with blobLen=%d: err = %v, want ErrFormat", wrong, err)
		}
		if _, err := Read(bytes.NewReader(bad)); !errors.Is(err, ErrFormat) {
			t.Errorf("Read with blobLen=%d: err = %v, want ErrFormat", wrong, err)
		}
	}
}

// TestReadBytesRejectsGarbage mirrors TestReadRejectsGarbage for the
// in-memory parser.
func TestReadBytesRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("PLLB"),
		[]byte("PLLB\x09"),
		[]byte("PLLB\x02\x05abc"),
	}
	for _, in := range cases {
		if _, err := ReadBytes(in); !errors.Is(err, ErrFormat) {
			t.Errorf("input %q: err = %v, want ErrFormat", in, err)
		}
	}
}
