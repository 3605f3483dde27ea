package stream

import (
	"runtime"
	"testing"
	"unsafe"
)

// TestSlabCarve pins the carve contract: rows are zeroed, capped and
// disjoint, an append to one reallocates instead of reaching the next,
// no slot is handed out twice, a chunk costs one allocation for all the
// rows cut from it, and an oversize row or a nil slab allocates alone.
func TestSlabCarve(t *testing.T) {
	var s Slab
	const rows = 1000
	seen := map[*Value]bool{}
	var kept [][]Value
	for i := 0; i < rows; i++ {
		n := 1 + i%(SlabChunk/4) // every width a slab cuts
		row := s.Take(n)
		if len(row) != n || cap(row) != n {
			t.Fatalf("Take(%d): len %d cap %d, want both %d", n, len(row), cap(row), n)
		}
		for k := range row {
			if row[k] != (Value{}) {
				t.Fatalf("Take(%d): slot %d reads %v, want the zero Value", n, k, row[k])
			}
			if seen[&row[k]] {
				t.Fatalf("Take(%d): slot %d handed out twice", n, k)
			}
			seen[&row[k]] = true
			row[k] = Int(int64(i))
		}
		grown := append(row, Int(-1))
		if &grown[0] == &row[0] {
			t.Fatalf("append to a row of %d did not reallocate", n)
		}
		kept = append(kept, row)
	}
	for i, row := range kept {
		for k, v := range row {
			if v != Int(int64(i)) {
				t.Fatalf("row %d slot %d reads %v after later rows were cut, want %d", i, k, v, i)
			}
		}
	}

	// One chunk per SlabChunk/width rows, give or take the runtime's own
	// background allocations.
	const width, runs = 4, 16 * SlabChunk
	if got, bound := mallocs(runs, func() { sink = s.Take(width) }), runs/(SlabChunk/width)+8; got > bound {
		t.Errorf("%d Takes of %d allocate %d times, want at most %d (one chunk per %d rows)", runs, width, got, bound, SlabChunk/width)
	}
	if got := testing.AllocsPerRun(runs, func() { sink = s.Take(SlabChunk/4 + 1) }); got != 1 {
		t.Errorf("an oversize row allocates %.0f/row, want 1", got)
	}
	var none *Slab
	if got := testing.AllocsPerRun(runs, func() { sink = none.Take(width) }); got != 1 {
		t.Errorf("a nil slab allocates %.0f/row, want 1", got)
	}
	if big := s.Take(SlabChunk); len(big) != SlabChunk || cap(big) != SlabChunk {
		t.Errorf("oversize Take: len %d cap %d", len(big), cap(big))
	}
	if row := none.Take(3); len(row) != 3 || cap(row) != 3 {
		t.Errorf("nil slab Take: len %d cap %d", len(row), cap(row))
	}
	if unsafe.Sizeof(Value{})*SlabChunk > 4<<10 {
		t.Errorf("a chunk is %d bytes, want at most 4 KiB", unsafe.Sizeof(Value{})*SlabChunk)
	}
}

// sink keeps a taken row reachable, so the compiler cannot drop the
// allocation being counted.
var sink []Value

// mallocs counts the heap allocations of runs calls of f on one P, as
// testing.AllocsPerRun does, without rounding their mean down to a
// whole number.
func mallocs(runs int, f func()) int {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return int(after.Mallocs - before.Mallocs)
}
