package gbdt

import (
	"fmt"
	"math"
	"os"
)

// Models persist as a self-contained JSON document (thresholds are real
// values, so no binner state is needed for prediction), read and written by
// the codec in codec.go.

// Save writes the model as JSON to path.
func (m *Model) Save(path string) error {
	data, err := m.AppendJSON(nil)
	if err != nil {
		return fmt.Errorf("gbdt: marshal model: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("gbdt: write model: %w", err)
	}
	return nil
}

// Load reads a model saved by Save.
func Load(path string) (*Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("gbdt: read model: %w", err)
	}
	m, err := DecodeJSON(data)
	if err != nil {
		return nil, fmt.Errorf("gbdt: parse model %s: %w", path, err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("gbdt: invalid model %s: %w", path, err)
	}
	return m, nil
}

// Validate checks the structure every evaluator and compiler downstream
// trusts without testing: features within bounds, child references forward and
// in range, every non-root node under exactly one parent, and every threshold
// a float32. A node shared by two parents would make a tree of n nodes unfold
// to up to 2ⁿ when compiled; a threshold between two float32s is one no
// trainer here writes and the compiled float32 form cannot hold. Load and
// registry.Decode both go through here, so no model file can do either. A NaN
// threshold, which only a model built in memory can hold (JSON has none),
// passes: every evaluator sends every row right at it.
func (m *Model) Validate() error {
	if m.NumFeatures <= 0 {
		return fmt.Errorf("NumFeatures = %d", m.NumFeatures)
	}
	for ti := range m.Trees {
		t := &m.Trees[ti]
		if len(t.Nodes) == 0 {
			if len(t.Leaves) != 1 {
				return fmt.Errorf("tree %d: no nodes but %d leaves", ti, len(t.Leaves))
			}
			continue
		}
		if len(t.Leaves) != len(t.Nodes)+1 {
			return fmt.Errorf("tree %d: %d nodes with %d leaves, want %d", ti, len(t.Nodes), len(t.Leaves), len(t.Nodes)+1)
		}
		hasParent := make([]bool, len(t.Nodes))
		for ni, n := range t.Nodes {
			// Children lie past their parent, so by node ni every possible
			// parent of ni has been seen.
			if ni > 0 && !hasParent[ni] {
				return fmt.Errorf("tree %d node %d: no parent", ti, ni)
			}
			if n.Feature < 0 || int(n.Feature) >= m.NumFeatures {
				return fmt.Errorf("tree %d node %d: feature %d out of range", ti, ni, n.Feature)
			}
			if t := n.Threshold; float64(float32(t)) != t && !math.IsNaN(t) {
				return fmt.Errorf("tree %d node %d: threshold %v is not a float32", ti, ni, t)
			}
			for _, c := range [2]int32{n.Left, n.Right} {
				if c >= 0 {
					if int(c) >= len(t.Nodes) {
						return fmt.Errorf("tree %d node %d: child %d out of range", ti, ni, c)
					}
					if c <= int32(ni) {
						return fmt.Errorf("tree %d node %d: non-forward child %d", ti, ni, c)
					}
					if hasParent[c] {
						return fmt.Errorf("tree %d node %d: child %d already has a parent", ti, ni, c)
					}
					hasParent[c] = true
				} else if int(^c) >= len(t.Leaves) {
					return fmt.Errorf("tree %d node %d: leaf %d out of range", ti, ni, ^c)
				}
			}
		}
	}
	return nil
}
