// Package sio persists the flow's artifacts — benchmarks, clock trees,
// and experiment results — as JSON, and emits CSV series for plotting.
// All readers validate what they load; a corrupted or hand-edited file
// fails loudly, never half-loads.
package sio

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"

	"smartndr/internal/ctree"
	"smartndr/internal/workload"
)

// SaveJSON writes v as indented JSON to path.
func SaveJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("sio: %w", err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return fmt.Errorf("sio: encoding %s: %w", path, err)
	}
	return nil
}

func loadJSON(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("sio: %w", err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("sio: decoding %s: %w", path, err)
	}
	return nil
}

// LoadBenchmark reads a benchmark and validates it.
func LoadBenchmark(path string) (*workload.Benchmark, error) {
	var bm workload.Benchmark
	if err := loadJSON(path, &bm); err != nil {
		return nil, err
	}
	if err := bm.Spec.Validate(); err != nil {
		return nil, err
	}
	if len(bm.Sinks) == 0 {
		return nil, fmt.Errorf("sio: benchmark %s has no sinks", path)
	}
	for i, s := range bm.Sinks {
		if s.Cap <= 0 {
			return nil, fmt.Errorf("sio: benchmark %s sink %d has non-positive cap", path, i)
		}
	}
	return &bm, nil
}

// treeFile is the serialized form of a clock tree.
type treeFile struct {
	Sinks  []ctree.Sink `json:"sinks"`
	Nodes  []nodeFile   `json:"nodes"`
	Root   int          `json:"root"`
	SrcLoc [2]float64   `json:"src"`
}

type nodeFile struct {
	Parent  int        `json:"parent"`
	Kids    [2]int     `json:"kids"`
	SinkIdx int        `json:"sink"`
	Loc     [2]float64 `json:"loc"`
	EdgeLen float64    `json:"len"`
	Rule    int        `json:"rule"`
	BufIdx  int        `json:"buf"`
}

// SaveTree writes a clock tree to path.
func SaveTree(path string, t *ctree.Tree) error {
	tf := treeFile{
		Sinks:  t.Sinks,
		Root:   t.Root,
		SrcLoc: [2]float64{t.SrcLoc.X, t.SrcLoc.Y},
	}
	for _, n := range t.Nodes {
		tf.Nodes = append(tf.Nodes, nodeFile{
			Parent: n.Parent, Kids: n.Kids, SinkIdx: n.SinkIdx,
			Loc: [2]float64{n.Loc.X, n.Loc.Y}, EdgeLen: n.EdgeLen,
			Rule: n.Rule, BufIdx: n.BufIdx,
		})
	}
	return SaveJSON(path, tf)
}

// LoadTree reads a clock tree and validates it.
func LoadTree(path string) (*ctree.Tree, error) {
	var tf treeFile
	if err := loadJSON(path, &tf); err != nil {
		return nil, err
	}
	t := &ctree.Tree{Sinks: tf.Sinks, Root: tf.Root}
	t.SrcLoc.X, t.SrcLoc.Y = tf.SrcLoc[0], tf.SrcLoc[1]
	for _, n := range tf.Nodes {
		node := ctree.Node{
			Parent: n.Parent, Kids: n.Kids, SinkIdx: n.SinkIdx,
			EdgeLen: n.EdgeLen, Rule: n.Rule, BufIdx: n.BufIdx,
		}
		node.Loc.X, node.Loc.Y = n.Loc[0], n.Loc[1]
		t.Nodes = append(t.Nodes, node)
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("sio: tree %s: %w", path, err)
	}
	return t, nil
}

// Series is one named column of values for CSV export.
type Series struct {
	Name   string
	Values []float64
}

// WriteCSV emits aligned series as CSV: one header row of names, then one
// row per index. Series must share a length.
func WriteCSV(w io.Writer, series ...Series) error {
	if len(series) == 0 {
		return fmt.Errorf("sio: no series")
	}
	n := len(series[0].Values)
	for _, s := range series {
		if len(s.Values) != n {
			return fmt.Errorf("sio: series %q has %d values, want %d", s.Name, len(s.Values), n)
		}
	}
	cw := csv.NewWriter(w)
	header := make([]string, len(series))
	for i, s := range series {
		header[i] = s.Name
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(series))
	for r := 0; r < n; r++ {
		for i, s := range series {
			row[i] = strconv.FormatFloat(s.Values[r], 'g', 8, 64)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSVFile writes series to a file path.
func WriteCSVFile(path string, series ...Series) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("sio: %w", err)
	}
	defer f.Close()
	return WriteCSV(f, series...)
}
