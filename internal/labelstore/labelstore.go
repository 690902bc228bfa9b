// Package labelstore persists labelings to a compact binary format, so that
// labels can be computed once and then distributed to the peers that answer
// queries (the deployment model of Section 1: structural information
// disseminated to vertices and stored locally).
//
// Format (all integers little-endian or uvarint):
//
//	magic   "PLLB"               4 bytes
//	version u8                   1 or 2
//	scheme  uvarint len + bytes  scheme name (informational)
//	params  uvarint count, then  key/value string pairs (decoder metadata,
//	        per pair: len+bytes   e.g. "n", "w")
//	n       uvarint              number of labels
//
// followed by the label payloads. Version 1 packs each label tightly:
//
//	labels  n × (uvarint bit length + ceil(len/8) bytes)
//
// Version 2 stores the word-aligned slab of the encode pipeline verbatim —
// one header, one body blob:
//
//	lens    n × uvarint          per-label bit lengths (always id-indexed)
//	perm    n × uvarint          rank→label layout permutation; present iff
//	                             params carries "layout" (value "degree")
//	shard   uvarint index,       shard map of a partitioned store; present
//	        u8 fn, uvarint owned iff params carries "shards" (see shard.go)
//	blob    uvarint byte count,  label perm[r] (or label r when no perm)
//	        then the slab        starts at the r-th word-aligned slot
//
// A v2 blob is byte-identical to the in-memory arena of a pipeline-built
// core.Labeling, so Write(arena-backed file) is a header plus a single
// contiguous copy, and a loaded blob goes to core.NewQueryEngineFromArena
// with zero relocation. A degree-ordered arena (core.LayoutDegree) rides the
// same path with its permutation block: readers reconstruct id-indexed
// lookup from the permutation, readers too old to know the "layout" param
// fail loudly on the extra block (a blob-length mismatch) rather than
// mis-answer. A distance store (params carry "scheme" = pll | bdist, see
// scheme.go) rides the same v2 body with no extra block — its engine
// parameters live entirely in the params. One parser, ReadBytes, understands
// both versions (Read and Open feed it); Write emits v2 when the file is
// arena-backed (NewArenaFile, NewPermutedArenaFile) and v1 otherwise.
package labelstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/bitstr"
	"repro/internal/core"
)

// ErrFormat is returned when the input is not a valid label store.
var ErrFormat = errors.New("labelstore: malformed input")

var magic = [4]byte{'P', 'L', 'L', 'B'}

const (
	version1 = 1 // tightly packed per-label payloads
	version2 = 2 // single word-aligned slab blob
)

// layoutKey is the params entry announcing a physically permuted v2 blob;
// its presence means a permutation block sits between the lens block and the
// blob. The only defined value is layoutDegree (descending-degree order).
// Any other value is rejected — misreading a permuted slab as id-ordered
// would silently answer queries from the wrong labels.
const (
	layoutKey    = "layout"
	layoutDegree = "degree"
)

// Hard caps on header-declared sizes: a corrupt or adversarial header must
// fail validation before it can drive a large allocation or an
// out-of-bounds view.
const (
	maxParams    = 1 << 16
	maxLabels    = 1 << 31
	maxString    = 1 << 20
	maxLabelBits = 1 << 34
)

// File is an in-memory representation of a label store.
type File struct {
	Scheme string
	Params map[string]string
	Labels []bitstr.String
	// arena, when non-nil, is the word-aligned slab the Labels are views
	// into, with bitLens the per-label bit lengths. Set by NewArenaFile and
	// by ReadBytes on v2 files; selects the v2 single-blob path in Write.
	arena   []byte
	bitLens []int
	// order, when non-nil, is the arena's physical layout permutation: slab
	// rank r holds label order[r]. Labels stays id-indexed either way.
	order []int32
	// shard, when non-nil, marks one shard of a partitioned store: owned
	// vertices (plus replicated fat labels) in full, foreign thin labels as
	// header stubs. See shard.go.
	shard *shardBlock
	// dist, when non-nil, marks a distance store (scheme kind pll or bdist)
	// and carries the engine parameters. See scheme.go.
	dist *core.DistParams
}

// N returns the number of labels.
func (f *File) N() int { return len(f.Labels) }

// NewArenaFile builds a store over a word-aligned label slab (the arena of a
// pipeline-built core.Labeling): label v occupies bits
// [off_v, off_v+bitLens[v]) where off_v = 64·Σ_{u<v} ceil(bitLens[u]/64).
// Write serializes such a file in format v2 — one header and the slab as a
// single body blob.
func NewArenaFile(scheme string, params map[string]string, slab []byte, bitLens []int) (*File, error) {
	labels := make([]bitstr.String, len(bitLens))
	var off int64
	for v, bits := range bitLens {
		view, err := bitstr.SlabView(slab, off, bits)
		if err != nil {
			return nil, fmt.Errorf("labelstore: arena label %d: %w", v, err)
		}
		labels[v] = view
		off += int64(bitstr.SlabWords(bits)) * bitstr.SlabWordBits
	}
	if int(off>>3) != len(slab) {
		return nil, fmt.Errorf("labelstore: arena slab has %d bytes, labels occupy %d", len(slab), off>>3)
	}
	return &File{Scheme: scheme, Params: params, Labels: labels, arena: slab, bitLens: bitLens}, nil
}

// NewPermutedArenaFile is NewArenaFile for a physically permuted slab: the
// label at word-aligned slab rank r is label order[r] with bitLens[order[r]]
// bits (the arena of a core.LayoutDegree labeling). Write serializes it in
// format v2 with a "layout" param and the permutation block. order must be a
// permutation of 0..len(bitLens)-1; nil delegates to NewArenaFile.
func NewPermutedArenaFile(scheme string, params map[string]string, slab []byte, bitLens []int, order []int32) (*File, error) {
	if order == nil {
		return NewArenaFile(scheme, params, slab, bitLens)
	}
	n := len(bitLens)
	if len(order) != n {
		return nil, fmt.Errorf("labelstore: layout permutation of %d entries over %d labels", len(order), n)
	}
	labels := make([]bitstr.String, n)
	seen := make([]uint64, (n+63)>>6)
	var off int64
	for r, v32 := range order {
		v := int(v32)
		if v < 0 || v >= n {
			return nil, fmt.Errorf("labelstore: layout permutation entry %d = %d of %d labels", r, v32, n)
		}
		if seen[v>>6]&(1<<uint(v&63)) != 0 {
			return nil, fmt.Errorf("labelstore: layout permutation repeats label %d at rank %d", v, r)
		}
		seen[v>>6] |= 1 << uint(v&63)
		view, err := bitstr.SlabView(slab, off, bitLens[v])
		if err != nil {
			return nil, fmt.Errorf("labelstore: arena label %d: %w", v, err)
		}
		labels[v] = view
		off += int64(bitstr.SlabWords(bitLens[v])) * bitstr.SlabWordBits
	}
	if int(off>>3) != len(slab) {
		return nil, fmt.Errorf("labelstore: arena slab has %d bytes, labels occupy %d", len(slab), off>>3)
	}
	return &File{Scheme: scheme, Params: params, Labels: labels, arena: slab, bitLens: bitLens, order: order}, nil
}

// Arena returns the word-aligned slab backing the store plus the per-label
// bit lengths, or ok=false when the store is not arena-backed (a v1 file).
// The pair is accepted directly by core.NewQueryEngineFromArena. For a
// permuted store Arena reports ok=false — label v is not at the v-th slot,
// and a caller unaware of the permutation would misread every offset; use
// ArenaLayout, which hands out the permutation alongside.
func (f *File) Arena() (slab []byte, bitLens []int, ok bool) {
	if f.order != nil {
		return nil, nil, false
	}
	return f.arena, f.bitLens, f.arena != nil
}

// ArenaLayout returns the backing slab, the per-label bit lengths, and the
// physical layout permutation (nil for the id-ordered layout) — the triple
// core.NewQueryEngineFromPermutedArena accepts for any v2 store.
func (f *File) ArenaLayout() (slab []byte, bitLens []int, order []int32, ok bool) {
	return f.arena, f.bitLens, f.order, f.arena != nil
}

// LayoutOrder returns the physical layout permutation, or nil when the store
// is id-ordered (v1, or v2 without a layout param).
func (f *File) LayoutOrder() []int32 { return f.order }

// PermutationOverheadBytes returns the serialized size of a layout
// permutation block — the header bytes a permuted store carries beyond its
// id-ordered equivalent (pllabel reports it in its summary line).
func PermutationOverheadBytes(order []int32) int {
	var buf [binary.MaxVarintLen64]byte
	total := 0
	for _, v := range order {
		total += binary.PutUvarint(buf[:], uint64(uint32(v)))
	}
	return total
}

// IntParam returns an integer metadata parameter.
func (f *File) IntParam(key string) (int, error) {
	v, ok := f.Params[key]
	if !ok {
		return 0, fmt.Errorf("%w: missing param %q", ErrFormat, key)
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("%w: param %q: %v", ErrFormat, key, err)
	}
	return n, nil
}

// atoiCanonical parses a structural param value (shard count, distance
// params) as Write spells it, strconv.Itoa, and refuses every other
// spelling of a number ("03", "+3"): Write re-emits these params from the
// parsed values, so a second spelling would not survive a round trip.
func atoiCanonical(val string) (int, error) {
	v, err := strconv.Atoi(val)
	if err == nil && strconv.Itoa(v) != val {
		err = fmt.Errorf("non-canonical integer %q", val)
	}
	return v, err
}

// Write serializes the store: format v2 (single slab blob) for arena-backed
// files, v1 (tightly packed per-label payloads) otherwise.
func Write(w io.Writer, f *File) error {
	if f.dist != nil {
		// Distance stores are v2-only (the engine adopts the slab as-is) and
		// never sharded; refusing here keeps the two readers' rejections
		// unreachable for files this package itself wrote.
		if f.arena == nil {
			return fmt.Errorf("labelstore: distance scheme %q requires an arena-backed store", f.dist.Kind)
		}
		if f.shard != nil {
			return fmt.Errorf("labelstore: sharded store cannot declare distance scheme %q", f.dist.Kind)
		}
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	ver := byte(version1)
	if f.arena != nil {
		ver = version2
	}
	if err := bw.WriteByte(ver); err != nil {
		return err
	}
	if err := writeString(bw, f.Scheme); err != nil {
		return err
	}
	// A permuted store must announce its layout and a sharded store its shard
	// count: readers key the permutation and shard blocks off these params,
	// so param and block are written (and read) as one unit.
	params := f.Params
	if f.order != nil || f.shard != nil || f.dist != nil {
		params = make(map[string]string, len(f.Params)+5)
		for k, v := range f.Params {
			params[k] = v
		}
		if f.order != nil {
			params[layoutKey] = layoutDegree
		}
		if f.shard != nil {
			params[shardsKey] = strconv.Itoa(f.shard.m.Count)
		}
		if f.dist != nil { // scheme kind + its companion engine params
			params[schemeKey] = f.dist.Kind.String()
			params[distWidthKey] = strconv.Itoa(f.dist.DW)
			if f.dist.Kind == core.DistBounded {
				params[distBoundKey] = strconv.Itoa(f.dist.F)
				params[distNFatKey] = strconv.Itoa(f.dist.NFat)
			}
		}
	}
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys) // deterministic files
	if err := writeUvarint(bw, uint64(len(keys))); err != nil {
		return err
	}
	for _, k := range keys {
		if err := writeString(bw, k); err != nil {
			return err
		}
		if err := writeString(bw, params[k]); err != nil {
			return err
		}
	}
	if ver == version2 {
		if err := writeUvarint(bw, uint64(len(f.bitLens))); err != nil {
			return err
		}
		for _, bits := range f.bitLens {
			if err := writeUvarint(bw, uint64(bits)); err != nil {
				return err
			}
		}
		for _, v := range f.order { // permutation block (empty when id-ordered)
			if err := writeUvarint(bw, uint64(uint32(v))); err != nil {
				return err
			}
		}
		if f.shard != nil { // shard block (absent for whole-labeling stores)
			if err := writeUvarint(bw, uint64(f.shard.m.Index)); err != nil {
				return err
			}
			if err := bw.WriteByte(byte(f.shard.m.Fn)); err != nil {
				return err
			}
			if err := writeUvarint(bw, uint64(f.shard.owned)); err != nil {
				return err
			}
		}
		if err := writeUvarint(bw, uint64(len(f.arena))); err != nil {
			return err
		}
		if _, err := bw.Write(f.arena); err != nil {
			return err
		}
		return bw.Flush()
	}
	if err := writeUvarint(bw, uint64(len(f.Labels))); err != nil {
		return err
	}
	for _, l := range f.Labels {
		if err := writeUvarint(bw, uint64(l.Len())); err != nil {
			return err
		}
		if _, err := bw.Write(l.Bytes()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a store written by Write: it reads r to the end and hands the
// bytes to ReadBytes. The returned File owns that buffer, so a v2 arena is a
// private heap copy of the body rather than a window into a mapping.
func Read(r io.Reader) (*File, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	return ReadBytes(data)
}

func writeUvarint(w *bufio.Writer, v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, err := w.Write(buf[:n])
	return err
}

func writeString(w *bufio.Writer, s string) error {
	if err := writeUvarint(w, uint64(len(s))); err != nil {
		return err
	}
	_, err := w.WriteString(s)
	return err
}
