package stream

import (
	"math"
	"strconv"
)

// This file provides canonical comparable keys for Values, used by the
// SPE's hash-partitioned join state and per-group aggregate state: Go map
// keys that agree with Value.Compare equality, so that index lookups
// reproduce exactly what a pairwise-comparison scan would find.

// maxExactFloat bounds the magnitude below which every integral float64
// converts to int64 and back without rounding (2^53).
const maxExactFloat = int64(1) << 53

// ValueKey is the canonical comparable form of a Value. Two Values that
// are equal under Compare produce identical keys (and vice versa) for all
// KeyExact values; see KeyExact for the corner cases. The zero ValueKey
// is the key of the invalid Value.
type ValueKey struct {
	kind Kind
	n    int64
	f    float64
	s    string
}

// Key returns the canonical comparable key of the value. Numeric kinds
// normalise to a single representation: ints and times share the integer
// form (Compare treats them as plain numbers), and floats holding an
// exactly-representable integer collapse into it, so Int(5), Time(5) and
// Float(5.0) — all equal under Compare — key identically.
func (v Value) Key() ValueKey {
	switch v.kind {
	case KindInt, KindTime:
		return ValueKey{kind: KindInt, n: v.n}
	case KindBool:
		return ValueKey{kind: KindBool, n: v.n}
	case KindString:
		return ValueKey{kind: KindString, s: v.s}
	case KindFloat:
		if math.IsNaN(v.f) {
			// One canonical key for every NaN: a NaN payload would
			// never equal itself as a map key, fragmenting groups and
			// stranding their state forever.
			return ValueKey{kind: KindFloat, s: "NaN"}
		}
		if v.f == math.Trunc(v.f) && v.f >= -float64(maxExactFloat) && v.f <= float64(maxExactFloat) {
			return ValueKey{kind: KindInt, n: int64(v.f)}
		}
		return ValueKey{kind: KindFloat, f: v.f}
	default:
		return ValueKey{}
	}
}

// String renders the key canonically; composite-key builders use it to
// concatenate the columns beyond their fixed-width fields. Floats use
// the exact binary exponent form so distinct values never collide.
func (k ValueKey) String() string {
	switch k.kind {
	case KindInt:
		return "i" + strconv.FormatInt(k.n, 10)
	case KindFloat:
		if k.s != "" {
			return "fNaN"
		}
		return "f" + strconv.FormatFloat(k.f, 'b', -1, 64)
	case KindBool:
		return "b" + strconv.FormatInt(k.n, 10)
	case KindString:
		return "s" + k.s
	default:
		return "?"
	}
}

// Hash returns a 64-bit hash of the key: equal keys hash equally, so a
// table addressed by it finds every Compare-equal KeyExact partner. The
// function is fixed (no per-process seed); callers that chain colliding
// rows verify candidates against the key columns.
//
//cosmos:hotpath
func (k ValueKey) Hash() uint64 {
	h := uint64(k.n)
	switch k.kind {
	case KindFloat:
		h = math.Float64bits(k.f) // 0 for the canonical NaN key
	case KindString:
		h = 14695981039346656037 // FNV-1a
		for i := 0; i < len(k.s); i++ {
			h = (h ^ uint64(k.s[i])) * 1099511628211
		}
	}
	// splitmix64 finaliser over the payload offset by the kind, so
	// sequential integers spread over a power-of-two table.
	h += uint64(k.kind) * 0x9e3779b97f4a7c15
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return h ^ h>>31
}

// KeyExact reports whether key equality coincides with Compare equality
// for this value against every possible partner. It is false only in the
// corners where float64 rounding makes Compare coarser than the key:
// NaN (Compare's three-way test reports 0 against any number) and
// numeric magnitudes above 2^53 (where distinct int64s collapse to one
// float64). Callers maintaining hash state route non-exact values to a
// scan path instead.
func (v Value) KeyExact() bool {
	switch v.kind {
	case KindInt, KindTime:
		return v.n >= -maxExactFloat && v.n <= maxExactFloat
	case KindFloat:
		return !math.IsNaN(v.f) && v.f >= -float64(maxExactFloat) && v.f <= float64(maxExactFloat)
	default:
		return true
	}
}
