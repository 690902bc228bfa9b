package labelstore

import (
	"encoding/binary"
	"fmt"
	"os"
	"time"

	"repro/internal/bitstr"
)

// ReadBytes parses a store from an in-memory byte slice — typically a
// memory-mapped file (see Open) — and is the package's only parser. For a
// format-v2 store the body blob is adopted zero-copy: the returned File's
// arena is a sub-slice of data and the labels are views into it, so nothing
// is relocated and nothing is written. data must therefore stay alive (and
// unmodified) for the lifetime of the File; a read-only mapping is fine
// because v2 padding bits are never masked in place. Files written by Write
// carry zero padding (the slab writer guarantees it), so label equality is
// unaffected; a hand-built v2 file with dirty padding would compare labels
// unequal while still answering queries correctly (the query engine only
// probes bits inside each label's declared length).
//
// Format-v1 payloads are not word-aligned, so they are copied into one heap
// slab (their padding bits masked there) and the returned File does not
// reference data at all.
func ReadBytes(data []byte) (*File, error) {
	p := &byteParser{data: data}
	if err := p.need(5); err != nil {
		return nil, fmt.Errorf("%w: magic: %v", ErrFormat, err)
	}
	if [4]byte(data[:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrFormat, data[:4])
	}
	ver := data[4]
	p.off = 5
	if ver != version1 && ver != version2 {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrFormat, ver)
	}
	scheme, err := p.string()
	if err != nil {
		return nil, err
	}
	nParams, err := p.uvarint("param count")
	if err != nil {
		return nil, err
	}
	// Every param is at least two length bytes, every label at least one:
	// counts the remaining input cannot hold fail before they size a map or
	// a per-label table.
	if nParams > maxParams || nParams > uint64(p.left()/2) {
		return nil, fmt.Errorf("%w: %d params in %d bytes", ErrFormat, nParams, p.left())
	}
	params := make(map[string]string, nParams)
	for i := uint64(0); i < nParams; i++ {
		k, err := p.string()
		if err != nil {
			return nil, err
		}
		v, err := p.string()
		if err != nil {
			return nil, err
		}
		params[k] = v
	}
	n, err := p.uvarint("label count")
	if err != nil {
		return nil, err
	}
	if n > maxLabels || n > uint64(p.left()) {
		return nil, fmt.Errorf("%w: %d labels in %d bytes", ErrFormat, n, p.left())
	}
	if ver == version1 {
		return p.readV1(scheme, params, int(n))
	}
	bitLens := make([]int, n)
	var words int64
	for i := range bitLens {
		bits, err := p.labelBits(i)
		if err != nil {
			return nil, err
		}
		bitLens[i] = bits
		words += int64(bitstr.SlabWords(bits))
	}
	var order []int32
	if lay, ok := params[layoutKey]; ok {
		if lay != layoutDegree {
			return nil, fmt.Errorf("%w: unknown layout %q", ErrFormat, lay)
		}
		// Range-checked here, permutation-checked (no label missing or
		// repeated) by SlabViewsPermuted below: a truncated or garbage block
		// errors at load, it can never mis-answer.
		order = make([]int32, n)
		for i := range order {
			v, err := p.uvarint("layout permutation entry")
			if err != nil {
				return nil, fmt.Errorf("%w: layout permutation entry %d: %v", ErrFormat, i, err)
			}
			if v >= n {
				return nil, fmt.Errorf("%w: layout permutation entry %d = %d of %d labels", ErrFormat, i, v, n)
			}
			order[i] = int32(v)
		}
	}
	var sb *shardBlock
	if val, ok := params[shardsKey]; ok {
		count, err := parseShardCount(val)
		if err != nil {
			return nil, err
		}
		index, err := p.uvarint("shard index")
		if err != nil {
			return nil, err
		}
		if err := p.need(1); err != nil {
			return nil, fmt.Errorf("%w: shard ownership function: %v", ErrFormat, err)
		}
		fnByte := p.data[p.off]
		p.off++
		owned, err := p.uvarint("shard owned count")
		if err != nil {
			return nil, err
		}
		if sb, err = newShardBlock(count, index, fnByte, owned, int(n)); err != nil {
			return nil, err
		}
	}
	dist, err := parseSchemeParams(params, int(n))
	if err != nil {
		return nil, err
	}
	if dist != nil && sb != nil {
		return nil, fmt.Errorf("%w: sharded store declares distance scheme %q", ErrFormat, dist.Kind)
	}
	// Validate the declared geometry before any view is constructed: the
	// blob-length field must agree with the bit lengths, and the blob must
	// actually be present in data — a short or truncated body fails here, at
	// load, never at query time.
	need := words << 3
	blobLen, err := p.uvarint("blob length")
	if err != nil {
		return nil, err
	}
	if err := checkBlobLen(int64(blobLen), need); err != nil {
		return nil, err
	}
	if int64(p.left()) < need {
		return nil, fmt.Errorf("%w: blob truncated: %d bytes of body, lengths require %d",
			ErrFormat, p.left(), need)
	}
	arena := data[p.off : p.off+int(need) : p.off+int(need)]
	// SlabViewsPermuted (identity when order is nil) never masks, keeping
	// read-only mappings safe; it also revalidates the permutation.
	labels, err := bitstr.SlabViewsPermuted(arena, bitLens, order)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	f := &File{Scheme: scheme, Params: params, Labels: labels, arena: arena, bitLens: bitLens, order: order}
	if sb != nil {
		if err := validateShardFile(f, sb); err != nil {
			return nil, err
		}
		f.shard = sb
	}
	f.dist = dist
	return f, nil
}

// readV1 parses the tightly packed v1 payloads that follow the header. All
// labels are copied into one contiguous heap slab and the returned strings
// are views into it — one allocation for the whole store instead of one per
// label, matching the layout core.(*Labeling).Compact produces — with
// bitstr.Wrap masking each label's padding bits in the copy.
func (p *byteParser) readV1(scheme string, params map[string]string, n int) (*File, error) {
	if lay, ok := params[layoutKey]; ok {
		// v1 payloads are inherently id-ordered; a layout param can only be
		// corruption or a format from the future. Refuse rather than guess.
		return nil, fmt.Errorf("%w: v1 store declares layout %q", ErrFormat, lay)
	}
	if sh, ok := params[shardsKey]; ok {
		// Likewise: sharding postdates v1, and loading a shard as a whole
		// labeling would answer foreign queries from stripped stubs.
		return nil, fmt.Errorf("%w: v1 store declares %s shards", ErrFormat, sh)
	}
	if sch, ok := params[schemeKey]; ok && sch != SchemeAdjacency {
		// Distance stores are v2-only; a v1 file declaring one is corrupt or
		// from a writer this reader cannot serve.
		return nil, fmt.Errorf("%w: v1 store declares scheme %q", ErrFormat, sch)
	}
	bitLens := make([]int, n)
	var slab []byte
	for i := range bitLens {
		bits, err := p.labelBits(i)
		if err != nil {
			return nil, err
		}
		nBytes := (bits + 7) / 8
		if err := p.need(nBytes); err != nil {
			return nil, fmt.Errorf("%w: label %d payload: %v", ErrFormat, i, err)
		}
		slab = append(slab, p.data[p.off:p.off+nBytes]...)
		p.off += nBytes
		bitLens[i] = bits
	}
	// The slab no longer moves; build the views.
	labels := make([]bitstr.String, n)
	off := 0
	for i, bits := range bitLens {
		end := off + (bits+7)/8
		s, err := bitstr.Wrap(slab[off:end:end], bits)
		if err != nil {
			return nil, fmt.Errorf("%w: label %d: %v", ErrFormat, i, err)
		}
		labels[i] = s
		off = end
	}
	return &File{Scheme: scheme, Params: params, Labels: labels}, nil
}

// checkBlobLen validates the declared blob byte count against the size the
// per-label bit lengths occupy. The two mismatch directions get distinct
// messages: a short blob is the truncation/corruption case, an oversized one
// a disagreeing header.
func checkBlobLen(blobLen, need int64) error {
	switch {
	case blobLen < need:
		return fmt.Errorf("%w: blob of %d bytes too short, declared lengths require %d", ErrFormat, blobLen, need)
	case blobLen > need:
		return fmt.Errorf("%w: blob of %d bytes, declared lengths occupy only %d", ErrFormat, blobLen, need)
	}
	return nil
}

// byteParser is a bounds-checked cursor over an in-memory store image.
type byteParser struct {
	data []byte
	off  int
}

// left is the number of unparsed bytes.
func (p *byteParser) left() int { return len(p.data) - p.off }

func (p *byteParser) need(n int) error {
	if p.left() < n {
		return fmt.Errorf("need %d bytes, have %d", n, p.left())
	}
	return nil
}

func (p *byteParser) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(p.data[p.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: %s: truncated or overlong uvarint", ErrFormat, what)
	}
	p.off += n
	return v, nil
}

// labelBits reads label i's bit length, capped at maxLabelBits.
func (p *byteParser) labelBits(i int) (int, error) {
	bits, err := p.uvarint("label length")
	if err != nil {
		return 0, fmt.Errorf("%w: label %d length: %v", ErrFormat, i, err)
	}
	if bits > maxLabelBits {
		return 0, fmt.Errorf("%w: label %d has %d bits", ErrFormat, i, bits)
	}
	return int(bits), nil
}

func (p *byteParser) string() (string, error) {
	n, err := p.uvarint("string length")
	if err != nil {
		return "", err
	}
	if n > maxString {
		return "", fmt.Errorf("%w: string of %d bytes", ErrFormat, n)
	}
	if err := p.need(int(n)); err != nil {
		return "", fmt.Errorf("%w: string payload: %v", ErrFormat, err)
	}
	s := string(p.data[p.off : p.off+int(n)])
	p.off += int(n)
	return s, nil
}

// MappedFile is a File backed by a memory-mapped store file. For format-v2
// stores on platforms with mmap support, the arena (and every label view) is
// a window into the page cache: Open costs O(header) regardless of body
// size, and any number of processes serving the same file share one
// physical copy of the labels. Close unmaps; the File and anything derived
// from its arena (query engines included) must not be used afterwards.
type MappedFile struct {
	*File
	mapping []byte
}

// Mapped reports whether the file's labels are served from a live memory
// mapping (false for v1 stores and on platforms without mmap, where Open
// fell back to a heap copy and Close is a no-op).
func (m *MappedFile) Mapped() bool { return m.mapping != nil }

// Close releases the mapping, if any.
func (m *MappedFile) Close() error {
	if m.mapping == nil {
		return nil
	}
	b := m.mapping
	m.mapping = nil
	storeMetrics.MappedBytes.Add(-int64(len(b)))
	return munmapFile(b)
}

// Open maps the store at path and parses it with ReadBytes. A format-v2
// store is adopted zero-copy from the mapping; a v1 store (or a platform
// without mmap, or a file mmap refuses) is read onto the heap and parsed by
// the same ReadBytes instead, so Open works everywhere and is merely fastest
// where it matters. The caller owns the returned MappedFile and must Close it when
// the labels are no longer in use.
func Open(path string) (*MappedFile, error) {
	start := time.Now()
	defer func() { storeMetrics.OpenNs.ObserveDuration(time.Since(start)) }()
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size > int64(maxInt) {
		return nil, fmt.Errorf("%w: store of %d bytes exceeds the address space", ErrFormat, size)
	}
	if size <= 0 {
		return openFallback(f, 0)
	}
	data, err := mmapFile(f, int(size))
	if err != nil {
		return openFallback(f, int(size))
	}
	store, err := ReadBytes(data)
	if err != nil {
		_ = munmapFile(data)
		return nil, err
	}
	arena, _, _, ok := store.ArenaLayout()
	if !ok {
		// v1: every label was copied to the heap, nothing references the
		// mapping — drop it now rather than at Close.
		_ = munmapFile(data)
		storeMetrics.OpenCopy.Inc()
		return &MappedFile{File: store}, nil
	}
	storeMetrics.OpenMmap.Inc()
	storeMetrics.MappedBytes.Add(int64(len(data)))
	storeMetrics.BlobBytes.Add(int64(len(arena)))
	return &MappedFile{File: store, mapping: data}, nil
}

// openFallback reads the store's size bytes (its Stat size) onto the heap
// and parses them with ReadBytes.
func openFallback(f *os.File, size int) (*MappedFile, error) {
	data := make([]byte, size)
	if _, err := f.ReadAt(data, 0); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	store, err := ReadBytes(data)
	if err != nil {
		return nil, err
	}
	storeMetrics.OpenCopy.Inc()
	if arena, _, _, ok := store.ArenaLayout(); ok {
		storeMetrics.BlobBytes.Add(int64(len(arena)))
	}
	return &MappedFile{File: store}, nil
}

const maxInt = int(^uint(0) >> 1)
