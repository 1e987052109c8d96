package cts

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smartndr/internal/cell"
	"smartndr/internal/ctree"
	"smartndr/internal/geom"
	"smartndr/internal/tech"
	"smartndr/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/build.golden from the current Build")

const goldenPath = "testdata/build.golden"

// goldenCase is one pinned construction input.
type goldenCase struct {
	name  string
	sinks []ctree.Sink
	src   geom.Point
}

// degenerateSinks returns the seeded geometries where the median split
// ties or collapses: coincident sinks (many sinks per location, so the
// split order of equal points decides which sink lands on which leaf),
// collinear sinks (a horizontal and a 45° line, a zero-height and a
// Manhattan-arc bounding box), an exact grid (ties on both axes), two
// sinks, and a compact set that fits one cluster.
func degenerateSinks(kind string, seed int64) []ctree.Sink {
	rng := rand.New(rand.NewSource(seed))
	capOf := func() float64 { return (1 + rng.Float64()*3) * 1e-15 }
	var sinks []ctree.Sink
	add := func(p geom.Point) {
		sinks = append(sinks, ctree.Sink{Name: fmt.Sprintf("ff%d", len(sinks)), Loc: p, Cap: capOf()})
	}
	switch kind {
	case "coincident":
		spots := make([]geom.Point, 4+rng.Intn(5))
		for i := range spots {
			spots[i] = geom.Point{X: math.Round(rng.Float64() * 3000), Y: math.Round(rng.Float64() * 2400)}
		}
		for n := 60 + rng.Intn(140); n > 0; n-- {
			add(spots[rng.Intn(len(spots))])
		}
	case "collinear":
		y := math.Round(rng.Float64() * 1000)
		for n := 40 + rng.Intn(120); n > 0; n-- {
			add(geom.Point{X: math.Round(rng.Float64() * 4000), Y: y})
		}
	case "diagonal":
		for n := 40 + rng.Intn(120); n > 0; n-- {
			v := math.Round(rng.Float64() * 3000)
			add(geom.Point{X: v, Y: v})
		}
	case "grid":
		nx, ny := 4+rng.Intn(12), 4+rng.Intn(12)
		pitch := float64(50 + rng.Intn(250))
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				add(geom.Point{X: float64(i) * pitch, Y: float64(j) * pitch})
			}
		}
	case "two":
		add(geom.Point{X: rng.Float64() * 2000, Y: rng.Float64() * 2000})
		add(geom.Point{X: rng.Float64() * 2000, Y: rng.Float64() * 2000})
	case "compact":
		for n := 2 + rng.Intn(14); n > 0; n-- {
			add(geom.Point{X: rng.Float64() * 80, Y: rng.Float64() * 80})
		}
	default:
		panic("unknown degenerate kind " + kind)
	}
	return sinks
}

var degenerateKinds = []string{"coincident", "collinear", "diagonal", "grid", "two", "compact"}

// goldenCases lists cns01–cns08 at their own seeds, then two seeded
// sets of every degenerate kind.
func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	var cases []goldenCase
	for _, spec := range workload.CNSSuite() {
		bm, err := workload.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, goldenCase{spec.Name, bm.Sinks, bm.Src})
	}
	for _, kind := range degenerateKinds {
		for seed := int64(1); seed <= 2; seed++ {
			cases = append(cases, goldenCase{
				name:  fmt.Sprintf("%s-%d", kind, seed),
				sinks: degenerateSinks(kind, seed),
				src:   geom.Point{X: 1000, Y: 800},
			})
		}
	}
	return cases
}

// resultHash is a SHA-256 over every field of every node of the built
// tree (in node order), its root, NumClusters and TopDelay.
func resultHash(res *Result) string {
	h := sha256.New()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	num := func(v int) { word(uint64(int64(v))) }
	float := func(v float64) { word(math.Float64bits(v)) }
	t := res.Tree
	num(len(t.Nodes))
	num(t.Root)
	for _, n := range t.Nodes {
		num(n.Parent)
		num(n.Kids[0])
		num(n.Kids[1])
		num(n.SinkIdx)
		float(n.Loc.X)
		float(n.Loc.Y)
		float(n.EdgeLen)
		num(n.Rule)
		num(n.BufIdx)
	}
	num(res.NumClusters)
	float(res.TopDelay)
	return hex.EncodeToString(h.Sum(nil))
}

// TestBuildGolden pins Build's output bit for bit on the CNS suite and
// the degenerate geometries. Every table, QoR digest and content key
// downstream is computed from these trees, so a construction speedup
// must leave the file as it is; a moved hash is a behaviour change, not
// a test to re-record.
func TestBuildGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cns01–cns08")
	}
	te := tech.Tech45()
	lib := cell.Default45()
	var got []string
	for _, c := range goldenCases(t) {
		res, err := Build(c.sinks, c.src, te, lib, Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got = append(got, c.name+" "+resultHash(res))
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
			t.Errorf("construction changed:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
