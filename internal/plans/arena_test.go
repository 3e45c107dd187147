package plans

import "testing"

// TestArenaEntriesStayPut: every index an arena hands out resolves, through
// at, to the very entry alloc returned — for first blocks sized from small
// and large estimates, through the doubling blocks and past them — and no
// entry moves as the arena grows.
func TestArenaEntriesStayPut(t *testing.T) {
	for _, estimate := range []int{1, 24, 300, maxArenaBlock, 1 << 20} {
		var a arena[int64]
		a.size(estimate)
		var ptrs []*int64
		for i := 0; i < 3*maxArenaBlock+5; i++ {
			p, idx := a.alloc()
			if int(idx) != i {
				t.Fatalf("estimate %d: alloc #%d returned index %d", estimate, i, idx)
			}
			*p = int64(i)
			ptrs = append(ptrs, p)
		}
		for i, p := range ptrs {
			if a.at(int32(i)) != p || *p != int64(i) {
				t.Fatalf("estimate %d: entry %d moved or is not what at returns", estimate, i)
			}
		}
	}
}
