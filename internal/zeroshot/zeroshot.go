// Package zeroshot implements a plan-structured neural-network cost model in
// the spirit of the Zero Shot models of Hilprecht & Binnig — the strongest
// accuracy baseline the paper compares against (Figures 1, 10, 12).
//
// Every plan node is featurized (operator one-hot, log-scaled cardinalities,
// tuple widths, predicate statistics); a shared encoder MLP combines each
// node's features with the sum of its children's embeddings bottom-up; a
// head MLP maps the root embedding to a log-transformed runtime. Like the
// original, it is transferable across database instances because all inputs
// are schema-agnostic ("transferable features"). And like all neural
// predictors, its inference latency is orders of magnitude higher than a
// compiled decision tree — which is the paper's point.
package zeroshot

import (
	"math"
	"math/rand"

	"t3/internal/benchdata"
	"t3/internal/engine/plan"
	"t3/internal/nn"
	"t3/internal/workload"
)

// NumNodeFeatures is the per-node feature dimension.
const NumNodeFeatures = plan.NumOpTypes + 7

// nodeFeatures fills the transferable feature vector of one plan node.
func nodeFeatures(n *plan.Node, mode plan.CardMode, out []float64) []float64 {
	if out == nil {
		out = make([]float64, NumNodeFeatures)
	} else {
		for i := range out {
			out[i] = 0
		}
	}
	out[int(n.Op)] = 1
	b := plan.NumOpTypes
	out[b+0] = math.Log10(n.OutCard.Get(mode) + 1)
	out[b+1] = math.Log10(n.InCard(mode) + 1)
	out[b+2] = math.Log10(n.RightCard(mode) + 1)
	out[b+3] = float64(n.OutWidth()) / 64
	out[b+4] = float64(len(n.Predicates))
	sel := 1.0
	for i := range n.PredSel {
		sel *= n.PredSel[i].Get(mode)
	}
	out[b+5] = sel
	nc := 0
	if n.Left != nil {
		nc++
	}
	if n.Right != nil {
		nc++
	}
	out[b+6] = float64(nc)
	return out
}

// Model is a trained zero-shot cost model.
type Model struct {
	Hidden int
	Enc    *nn.MLP // (NumNodeFeatures + Hidden) -> Hidden
	Head   *nn.MLP // Hidden -> 1
}

// TrainConfig configures training.
type TrainConfig struct {
	Hidden int
	Epochs int
	Batch  int
	LR     float64
	Seed   int64
	// Progress, when non-nil, receives the epoch loss.
	Progress func(epoch int, loss float64)
}

// DefaultTrainConfig returns a configuration balancing accuracy and training
// time for corpora of a few thousand queries. The paper's Zero Shot model is
// far larger (50 ms inference); this pure-Go substitute keeps the latency
// contrast directional while remaining trainable in minutes.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Hidden: 64, Epochs: 40, Batch: 16, LR: 1e-3}
}

// nodeState records one node's forward pass for backprop.
type nodeState struct {
	n        *plan.Node
	feat     []float64
	input    []float64 // feat ++ childSum
	trace    *nn.Trace
	emb      []float64
	children []int // indices into the recorder's states
}

// recorder captures the recursive forward pass in topological order
// (children before parents).
type recorder struct {
	states []nodeState
}

// forward embeds the subtree rooted at n and returns its state index.
func (m *Model) forward(n *plan.Node, mode plan.CardMode, rec *recorder) int {
	var children []int
	childSum := make([]float64, m.Hidden)
	if n.Left != nil {
		ci := m.forward(n.Left, mode, rec)
		children = append(children, ci)
		for i, v := range rec.states[ci].emb {
			childSum[i] += v
		}
	}
	if n.Right != nil {
		ci := m.forward(n.Right, mode, rec)
		children = append(children, ci)
		for i, v := range rec.states[ci].emb {
			childSum[i] += v
		}
	}
	feat := nodeFeatures(n, mode, nil)
	input := make([]float64, 0, len(feat)+m.Hidden)
	input = append(input, feat...)
	input = append(input, childSum...)
	trace, emb := m.Enc.Forward(input)
	rec.states = append(rec.states, nodeState{
		n: n, feat: feat, input: input, trace: trace, emb: emb, children: children,
	})
	return len(rec.states) - 1
}

// infer embeds a subtree without recording traces (prediction path).
func (m *Model) infer(n *plan.Node, mode plan.CardMode) []float64 {
	childSum := make([]float64, m.Hidden)
	if n.Left != nil {
		for i, v := range m.infer(n.Left, mode) {
			childSum[i] += v
		}
	}
	if n.Right != nil {
		for i, v := range m.infer(n.Right, mode) {
			childSum[i] += v
		}
	}
	input := make([]float64, 0, NumNodeFeatures+m.Hidden)
	input = append(input, nodeFeatures(n, mode, nil)...)
	input = append(input, childSum...)
	return m.Enc.Infer(input)
}

// PredictSeconds predicts the query execution time in seconds.
func (m *Model) PredictSeconds(root *plan.Node, mode plan.CardMode) float64 {
	emb := m.infer(root, mode)
	t := m.Head.Infer(emb)[0]
	return benchdata.InverseTarget(t)
}

// Train fits the model on benchmarked queries with targets
// -log10(median total runtime).
func Train(labels []*workload.Label, mode plan.CardMode, cfg TrainConfig) *Model {
	if cfg.Hidden == 0 {
		cfg = DefaultTrainConfig()
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	m := &Model{
		Hidden: cfg.Hidden,
		Enc:    nn.NewMLP(rng, NumNodeFeatures+cfg.Hidden, cfg.Hidden, cfg.Hidden),
		Head:   nn.NewMLP(rng, cfg.Hidden, cfg.Hidden, 1),
	}
	targets := make([]float64, len(labels))
	for i, b := range labels {
		targets[i] = benchdata.TargetTransform(b.MedianTotal().Seconds())
	}

	order := rng.Perm(len(labels))
	step := 0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		epochLoss := 0.0
		inBatch := 0
		for _, qi := range order {
			b := labels[qi]
			rec := &recorder{}
			rootIdx := m.forward(b.Root, mode, rec)
			headTrace, out := m.Head.Forward(rec.states[rootIdx].emb)
			diff := out[0] - targets[qi]
			epochLoss += 0.5 * diff * diff

			// Backward: head, then nodes in reverse topological order.
			embGrads := make([][]float64, len(rec.states))
			embGrads[rootIdx] = m.Head.Backward(headTrace, []float64{diff})
			for i := len(rec.states) - 1; i >= 0; i-- {
				g := embGrads[i]
				if g == nil {
					continue
				}
				dIn := m.Enc.Backward(rec.states[i].trace, g)
				// The trailing Hidden entries of the encoder input are the
				// summed child embeddings; route their gradient to each
				// child.
				childGrad := dIn[NumNodeFeatures:]
				for _, ci := range rec.states[i].children {
					if embGrads[ci] == nil {
						embGrads[ci] = append([]float64(nil), childGrad...)
					} else {
						for k, v := range childGrad {
							embGrads[ci][k] += v
						}
					}
				}
			}
			inBatch++
			if inBatch >= cfg.Batch {
				step++
				m.Enc.Adam(cfg.LR, step)
				m.Head.Adam(cfg.LR, step)
				inBatch = 0
			}
		}
		if inBatch > 0 {
			step++
			m.Enc.Adam(cfg.LR, step)
			m.Head.Adam(cfg.LR, step)
		}
		if cfg.Progress != nil {
			cfg.Progress(epoch, epochLoss/float64(len(labels)))
		}
	}
	return m
}
