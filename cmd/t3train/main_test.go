package main

import (
	"testing"

	"t3"
	"t3/internal/ctrl"
	"t3/internal/registry"
	"t3/internal/workload"
)

// swapper is the serving side of a controller: it only holds the model.
type swapper struct{ m *t3.Model }

func (s *swapper) Model() *t3.Model     { return s.m }
func (s *swapper) SetModel(m *t3.Model) { s.m = m }

// noLabels is a label source the test never asks for labels.
type noLabels struct{}

func (noLabels) CollectLabels(int) (*workload.LabelSet, error) { return &workload.LabelSet{}, nil }

// TestRegisterChainsToLatestVersion: a model t3train registers over a
// registry whose latest version is 1 records 1 as its parent, so a server
// booting from the registry serves the new version with version 1 as its
// rollback target, and the rollback succeeds.
func TestRegisterChainsToLatestVersion(t *testing.T) {
	m, err := t3.Load("../../models/t3_default.json")
	if err != nil {
		t.Fatal(err)
	}
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	v1, err := reg.Put(&registry.Artifact{Meta: registry.Meta{Source: "seed"}, GBM: m.Boosted()})
	if err != nil || v1 != 1 {
		t.Fatalf("seeding the registry: version %d, %v", v1, err)
	}
	v2, err := register(reg, registry.Meta{Source: "t3train"}, m)
	if err != nil {
		t.Fatal(err)
	}

	c, err := ctrl.New(ctrl.Config{Registry: reg, Source: noLabels{}, Swapper: &swapper{}})
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Status(); st.LiveVersion != v2 || st.PreviousVersion != v1 {
		t.Fatalf("booted live version %d over previous %d, want %d over %d", st.LiveVersion, st.PreviousVersion, v2, v1)
	}
	if got, err := c.Rollback(); err != nil || got != v1 {
		t.Fatalf("Rollback = %d, %v; want version %d", got, err, v1)
	}
}
