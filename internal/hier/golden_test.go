package hier

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smartndr/internal/cell"
	"smartndr/internal/tech"
)

var update = flag.Bool("update", false, "rewrite testdata/build.golden from the current Build")

const goldenPath = "testdata/build.golden"

// goldenCase is one pinned hierarchical build: a seeded benchSinks design
// and the region bound and optimizer switch it is built with.
type goldenCase struct {
	sinks      int
	die        float64
	seed       int64
	maxRegion  int
	smart      bool
	wantRolled bool // the balance is known to roll back on this design
}

func (c goldenCase) name() string {
	scheme := "blanket"
	if c.smart {
		scheme = "smart"
	}
	return fmt.Sprintf("%dk-%d-%s-%d", c.sinks/1000, c.maxRegion, scheme, c.seed)
}

// goldenCases spans 4k–12k sinks at 500- and 1,024-sink regions. Their
// global balances take every path through the repair loop: converging
// after accepted iterations, rolling back every iteration until the
// damping runs out, and rolling back between accepted iterations.
var goldenCases = []goldenCase{
	{sinks: 4000, die: 7000, seed: 2, maxRegion: 500, smart: true, wantRolled: true},
	{sinks: 8000, die: 10000, seed: 2, maxRegion: 500, smart: true},
	{sinks: 8000, die: 10000, seed: 1, maxRegion: 500},
	{sinks: 8000, die: 10000, seed: 2, maxRegion: 1024},
	{sinks: 12000, die: 10000, seed: 2, maxRegion: 500},
	{sinks: 12000, die: 10000, seed: 1, maxRegion: 1024, smart: true, wantRolled: true},
}

// buildHash is a SHA-256 over the stitched tree's fingerprint, the region
// sizes, the final skew, the balance's RepairStats fields other than
// Rollbacks (the golden predates that count), and every scalar of the
// aggregated optimizer stats.
func buildHash(res *Result) string {
	h := sha256.New()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	num := func(v int) { word(uint64(int64(v))) }
	float := func(v float64) { word(math.Float64bits(v)) }
	bit := func(v bool) {
		if v {
			num(1)
		} else {
			num(0)
		}
	}
	fp := fingerprint(res.Tree)
	h.Write(fp[:])
	num(res.NumRegions)
	for _, n := range res.RegionSinks {
		num(n)
	}
	float(res.Skew)
	b := res.Balance
	num(b.Iters)
	float(b.AddedWire)
	float(b.FinalSkew)
	bit(b.Converged)
	if o := res.Opt; o != nil {
		num(o.Passes)
		num(o.Downgrades)
		num(o.Upgrades)
		float(o.CapBefore)
		float(o.CapAfter)
		float(o.RepairWire)
		float(o.FinalSkew)
		float(o.FinalSlew)
		num(o.RepairRounds)
		num(o.RecoverRounds)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBuildGolden pins hierarchical builds bit for bit: the stitched,
// balanced tree, the balance's stats and the aggregated optimizer stats.
// A speed-up of the partition or the balance must leave the file as it
// is; a moved hash is a behaviour change, not a test to re-record.
func TestBuildGolden(t *testing.T) {
	te := tech.Tech45()
	lib := cell.Default45()
	var got []string
	rolled := 0
	for _, c := range goldenCases {
		sinks, bm := benchSinks(t, c.sinks, c.die, c.seed)
		cfg := Config{MaxRegionSinks: c.maxRegion, Smart: c.smart, Workers: 2}
		res, err := Build(context.Background(), sinks, bm.Src, te, lib, cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name(), err)
		}
		if res.Balance.Rollbacks > 0 {
			rolled++
		} else if c.wantRolled {
			t.Errorf("%s: balance %+v did not roll back", c.name(), res.Balance)
		}
		got = append(got, c.name()+" "+buildHash(res))
	}
	if rolled == 0 {
		t.Fatal("no design's balance rolled back; the golden would not cover the rollback path")
	}
	if *update {
		body := strings.Join(got, "\n") + "\n"
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d cases, test built %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("hierarchical build changed:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
