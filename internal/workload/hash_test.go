package workload

import (
	"bytes"
	"testing"
)

func TestSpecCanonicalDeterministic(t *testing.T) {
	for _, s := range CNSSuite() {
		a, b := s.Canonical(), s.Canonical()
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: canonical bytes differ across calls", s.Name)
		}
		if s.Hash() != s.Hash() {
			t.Fatalf("%s: hash differs across calls", s.Name)
		}
	}
}

func TestSpecHashSeparatesSpecs(t *testing.T) {
	seen := map[string]string{}
	for _, s := range CNSSuite() {
		h := s.Hash()
		if prev, dup := seen[h]; dup {
			t.Fatalf("specs %s and %s collide", prev, s.Name)
		}
		seen[h] = s.Name
	}
	// Every result-determining field must move the hash.
	base := CNSSuite()[0]
	mutations := []func(*Spec){
		func(s *Spec) { s.Name = "other" },
		func(s *Spec) { s.Dist = Clustered },
		func(s *Spec) { s.Sinks++ },
		func(s *Spec) { s.DieX += 1 },
		func(s *Spec) { s.DieY += 1 },
		func(s *Spec) { s.CapMin *= 2 },
		func(s *Spec) { s.CapMax *= 2 },
		func(s *Spec) { s.Seed++ },
		func(s *Spec) { s.Clusters = 7 },
	}
	for i, mut := range mutations {
		m := base
		mut(&m)
		if m.Hash() == base.Hash() {
			t.Errorf("mutation %d did not change the hash", i)
		}
	}
}
