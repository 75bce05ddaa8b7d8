package difftest

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"github.com/indoorspatial/ifls/internal/core"
	"github.com/indoorspatial/ifls/internal/d2d"
	"github.com/indoorspatial/ifls/internal/vip"
)

// TestPagedIndexParity pins the paged index store to the monolithic answer
// path: for a sweep of generated cases, the built tree is round-tripped
// through SavePaged/OpenPaged under a cache budget far below the matrix
// heap, and the paged tree must (a) pass the full differential harness —
// engine versus oracle versus brute, across every answer path — and (b)
// produce a bit-identical core.ExecResult to the resident tree. The sweep
// as a whole must record cache evictions, proving the parity held while
// pages were genuinely being dropped and re-faulted, not just while
// everything stayed resident.
func TestPagedIndexParity(t *testing.T) {
	const pageSize = 256
	var evictions int64
	for seed := int64(1); seed <= 12; seed++ {
		c := GenCase(seed)
		env := NewEnv(c.Venue, vip.DefaultOptions())

		var buf bytes.Buffer
		if err := env.Tree.SavePaged(&buf, vip.PagedSaveOptions{PageSize: pageSize}); err != nil {
			t.Fatalf("seed %d: SavePaged: %v", seed, err)
		}
		data := buf.Bytes()
		paged, err := vip.OpenPaged(bytes.NewReader(data), int64(len(data)), c.Venue,
			vip.PagedOptions{CacheBytes: 2 * pageSize})
		if err != nil {
			t.Fatalf("seed %d: OpenPaged: %v", seed, err)
		}

		penv := &Env{
			Venue:   c.Venue,
			Tree:    paged,
			Graph:   d2d.New(c.Venue),
			Session: core.NewSession(paged),
			Scratch: core.NewScratch(),
		}
		if m := penv.Check(c.Query, c.Obj, c.K); m != nil {
			t.Errorf("seed %d: paged tree failed the differential harness: %v", seed, m)
		}

		opts := core.Options{Objective: c.Obj, K: c.K}
		want, werr := core.Exec(context.Background(), env.Tree, c.Query, opts)
		got, gerr := core.Exec(context.Background(), paged, c.Query, opts)
		if (werr == nil) != (gerr == nil) {
			t.Errorf("seed %d: error divergence: resident %v, paged %v", seed, werr, gerr)
		} else if werr == nil && !reflect.DeepEqual(want, got) {
			t.Errorf("seed %d: paged result diverges from resident:\n resident %+v\n paged    %+v", seed, want, got)
		}

		evictions += paged.PageCacheStats().Evictions
		if err := paged.Close(); err != nil {
			t.Fatalf("seed %d: Close: %v", seed, err)
		}
	}
	if evictions == 0 {
		t.Fatal("no cache evictions across the sweep; the pressure budget no longer bites")
	}
}
