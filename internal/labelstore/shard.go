package labelstore

import (
	"fmt"

	"repro/internal/bitstr"
	"repro/internal/core"
)

// Shard block: the format-v2 extension for partitioned stores.
//
// A sharded store (pllabel -shards N) is one shard of a fat/thin labeling:
// it holds the full labels of the vertices it owns plus every fat label
// (replicated fat–fat data), with foreign thin labels stripped to their
// 1+w-bit [fat-bit][id] header stub (core.ShardLabelArenas). The store
// announces itself with a "shards" param (the shard count), which — exactly
// like the "layout" param and its permutation block — keys a binary shard
// block between the permutation block and the body blob:
//
//	shard   uvarint shard index, u8 ownership function (0 = range,
//	        1 = hash), uvarint owned-vertex count; present iff params
//	        carries "shards"
//
// Readers too old to know the param fail loudly on the extra bytes (the
// blob-length check cannot match), and v1 stores declaring shards are
// rejected outright. The block is validated on open the same way the
// permutation block is: structurally (index < count, a defined function,
// the owned count recomputed from the function and compared) and against
// the labels themselves (every foreign thin label must be a stub) — a
// corrupted or mislabeled shard map errors at load, it never silently
// mis-answers for vertices the shard does not hold.

// shardsKey is the params entry announcing a sharded store; its value is the
// decimal shard count.
const shardsKey = "shards"

// shardBlock is the parsed shard header of a sharded store.
type shardBlock struct {
	m     core.ShardMap
	owned int
}

// Shard returns the shard map of a partitioned store, or ok=false for an
// ordinary (whole-labeling) store.
func (f *File) Shard() (core.ShardMap, bool) {
	if f.shard == nil {
		return core.ShardMap{}, false
	}
	return f.shard.m, true
}

// NewShardArenaFile builds one shard's store over a per-shard arena produced
// by core.ShardLabelArenas: slab/bitLens/order exactly as
// NewPermutedArenaFile takes them, plus the shard map the arena was split
// under. The shard geometry is validated against the labels here, at
// construction, with the same checks every reader re-runs at load.
func NewShardArenaFile(scheme string, params map[string]string, slab []byte, bitLens []int, order []int32, m core.ShardMap) (*File, error) {
	f, err := NewPermutedArenaFile(scheme, params, slab, bitLens, order)
	if err != nil {
		return nil, err
	}
	sb := &shardBlock{m: m, owned: m.OwnedCount(len(bitLens))}
	if err := validateShardFile(f, sb); err != nil {
		return nil, err
	}
	f.shard = sb
	return f, nil
}

// validateShardFile cross-checks a shard block against the store's labels:
// the map must be well-formed for this n, the recorded owned count must
// match what the ownership function yields, and every foreign thin label
// must be a header-only stub. Shared by the constructor and the reader.
func validateShardFile(f *File, sb *shardBlock) error {
	n := len(f.Labels)
	m := sb.m
	if m.Count < 2 {
		return fmt.Errorf("%w: sharded store with %d shards (want >= 2)", ErrFormat, m.Count)
	}
	if err := m.Validate(n); err != nil {
		return fmt.Errorf("%w: %v", ErrFormat, err)
	}
	if want := m.OwnedCount(n); sb.owned != want {
		return fmt.Errorf("%w: shard %d/%d records %d owned vertices, ownership function %s yields %d",
			ErrFormat, m.Index, m.Count, sb.owned, m.Fn, want)
	}
	w := bitstr.WidthFor(uint64(n))
	stub := 1 + w
	for v, l := range f.Labels {
		if l.Len() < stub {
			return fmt.Errorf("%w: sharded store label %d has %d bits, fat/thin header needs %d",
				ErrFormat, v, l.Len(), stub)
		}
		if m.Owns(v, n) {
			continue
		}
		// Foreign: fat labels are replicated in full, thin labels must be
		// stripped to the stub — a full foreign thin body means the block
		// describes a different shard than the blob holds.
		if fat := l.MustPeekUint(0, 1) == 1; !fat && l.Len() != stub {
			return fmt.Errorf("%w: vertex %d is foreign to shard %d/%d yet its thin label has %d bits (stub is %d)",
				ErrFormat, v, m.Index, m.Count, l.Len(), stub)
		}
	}
	return nil
}

// parseShardCount interprets the "shards" param value.
func parseShardCount(val string) (int, error) {
	count, err := atoiCanonical(val)
	if err != nil {
		return 0, fmt.Errorf("%w: shards param %q: %v", ErrFormat, val, err)
	}
	if count < 2 || int64(count) > maxLabels {
		return 0, fmt.Errorf("%w: shards param %d", ErrFormat, count)
	}
	return count, nil
}

// newShardBlock assembles and range-checks the parsed block fields (full
// validation against the labels happens once the File exists).
func newShardBlock(count int, index uint64, fnByte byte, owned uint64, n int) (*shardBlock, error) {
	if index >= uint64(count) {
		return nil, fmt.Errorf("%w: shard index %d of %d shards", ErrFormat, index, count)
	}
	fn := core.ShardFn(fnByte)
	if !fn.Valid() {
		return nil, fmt.Errorf("%w: unknown shard ownership function %d", ErrFormat, fnByte)
	}
	if owned > uint64(n) {
		return nil, fmt.Errorf("%w: shard owns %d of %d vertices", ErrFormat, owned, n)
	}
	return &shardBlock{
		m:     core.ShardMap{Count: count, Index: int(index), Fn: fn},
		owned: int(owned),
	}, nil
}
