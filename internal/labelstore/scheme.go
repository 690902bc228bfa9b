package labelstore

import (
	"fmt"

	"repro/internal/bitstr"
	"repro/internal/core"
)

// Scheme record kind: the format-v2 extension for distance stores.
//
// A store's "scheme" param declares which query plane its labels belong to:
//
//	adjacency  fat/thin adjacency labels (the default when the param is
//	           absent — every store written before this param existed)
//	pll        pruned landmark distance labels (δ-gap hub ranks)
//	bdist      Lemma 7 f(n)-bounded distance labels
//
// Unlike "layout" and "shards", the scheme kind carries no binary block —
// its companion values ride in the params themselves: "dw" (the fixed
// distance width, both kinds), plus "f" and "nfat" for bdist. Together they
// are exactly a core.DistParams, so a reader hands DistArena() straight to
// core.NewDistEngine. An unknown kind is rejected by name — misreading
// distance labels as adjacency labels (or the reverse) must fail loudly at
// load, never mis-answer. Distance stores are inherently v2 (the engine
// adopts the slab zero-copy) and never sharded (distance serving replicates
// whole stores; see plroute), so v1 + scheme and shards + scheme are both
// refused by writers and readers alike.

// Param keys of the scheme record kind. The kind values are
// SchemeAdjacency, SchemePLL and SchemeBDist.
const (
	schemeKey    = "scheme"
	distWidthKey = "dw"   // fixed distance field width in bits
	distBoundKey = "f"    // bdist: the distance bound f(n)
	distNFatKey  = "nfat" // bdist: fat-table width (number of fat hubs)
)

// Scheme kinds a store may declare. Absence of the param means adjacency.
const (
	SchemeAdjacency = "adjacency"
	SchemePLL       = "pll"
	SchemeBDist     = "bdist"
)

// SchemeKind returns the store's record kind: SchemeAdjacency, SchemePLL or
// SchemeBDist.
func (f *File) SchemeKind() string {
	if f.dist == nil {
		return SchemeAdjacency
	}
	return f.dist.Kind.String()
}

// DistParams returns the distance-engine parameters of a pll or bdist store,
// or ok=false for an adjacency store.
func (f *File) DistParams() (core.DistParams, bool) {
	if f.dist == nil {
		return core.DistParams{}, false
	}
	return *f.dist, true
}

// DistArena returns the store's labels as the arena triple plus parameters
// that core.NewDistEngine adopts zero-copy, or ok=false for an adjacency
// store.
func (f *File) DistArena() (*core.DistArena, bool) {
	if f.dist == nil || f.arena == nil {
		return nil, false
	}
	return &core.DistArena{Slab: f.arena, BitLens: f.bitLens, Order: f.order, Params: *f.dist}, true
}

// NewDistArenaFile builds a distance store over a pipeline-built
// core.DistArena (the output of the distance EncodeArena paths). Write
// serializes it in format v2 with the scheme params; the reader hands the
// kind and engine parameters back via DistParams/DistArena.
func NewDistArenaFile(scheme string, params map[string]string, a *core.DistArena) (*File, error) {
	f, err := NewPermutedArenaFile(scheme, params, a.Slab, a.BitLens, a.Order)
	if err != nil {
		return nil, err
	}
	dp := a.Params
	if err := checkDistParams(dp, f.N()); err != nil {
		return nil, fmt.Errorf("labelstore: %v", err)
	}
	f.dist = &dp
	return f, nil
}

// checkDistParams validates an engine parameter set against the label count,
// shared by the constructor and the reader. The checks mirror what
// core.NewDistEngineFromArena enforces so that a store accepted here is
// structurally able to build an engine (the engine still walks every label).
func checkDistParams(dp core.DistParams, n int) error {
	switch dp.Kind {
	case core.DistPLL:
		if dp.DW < 1 || dp.DW > 32 {
			return fmt.Errorf("pll scheme distance width %d (want 1..32)", dp.DW)
		}
		if dp.F != 0 || dp.NFat != 0 {
			return fmt.Errorf("pll scheme carries bounded-distance params f=%d nfat=%d", dp.F, dp.NFat)
		}
	case core.DistBounded:
		if dp.F < 1 {
			return fmt.Errorf("bdist scheme bound f=%d (want >= 1)", dp.F)
		}
		if want := bitstr.WidthFor(uint64(dp.F) + 2); dp.DW != want {
			return fmt.Errorf("bdist scheme distance width %d, bound f=%d requires %d", dp.DW, dp.F, want)
		}
		if dp.NFat < 0 || dp.NFat > n {
			return fmt.Errorf("bdist scheme declares %d fat hubs over %d labels", dp.NFat, n)
		}
	default:
		return fmt.Errorf("unknown distance kind %d", dp.Kind)
	}
	return nil
}

// parseSchemeParams interprets the scheme params of a v2 store: nil for an
// adjacency store (param absent or explicitly "adjacency"), the assembled
// core.DistParams for a distance store, and a clear error for a kind this
// reader does not know — the forward-compatibility contract that keeps an
// old binary from probing labels of a plane it cannot decode.
func parseSchemeParams(params map[string]string, n int) (*core.DistParams, error) {
	val, ok := params[schemeKey]
	if !ok || val == SchemeAdjacency {
		return nil, nil
	}
	var dp core.DistParams
	switch val {
	case SchemePLL:
		dp.Kind = core.DistPLL
	case SchemeBDist:
		dp.Kind = core.DistBounded
	default:
		return nil, fmt.Errorf("%w: unknown scheme kind %q (know %q, %q, %q)",
			ErrFormat, val, SchemeAdjacency, SchemePLL, SchemeBDist)
	}
	var err error
	if dp.DW, err = schemeIntParam(params, distWidthKey); err != nil {
		return nil, err
	}
	if dp.Kind == core.DistBounded {
		if dp.F, err = schemeIntParam(params, distBoundKey); err != nil {
			return nil, err
		}
		if dp.NFat, err = schemeIntParam(params, distNFatKey); err != nil {
			return nil, err
		}
	}
	if err := checkDistParams(dp, n); err != nil {
		return nil, fmt.Errorf("%w: scheme %q: %v", ErrFormat, val, err)
	}
	return &dp, nil
}

// schemeIntParam reads a required companion param of the scheme kind.
func schemeIntParam(params map[string]string, key string) (int, error) {
	val, ok := params[key]
	if !ok {
		return 0, fmt.Errorf("%w: scheme %q requires param %q", ErrFormat, params[schemeKey], key)
	}
	v, err := atoiCanonical(val)
	if err != nil {
		return 0, fmt.Errorf("%w: scheme param %q = %q: %v", ErrFormat, key, val, err)
	}
	if v < 0 || int64(v) > maxLabels {
		return 0, fmt.Errorf("%w: scheme param %q = %d", ErrFormat, key, v)
	}
	return v, nil
}
