package experiments

import (
	"math"
	"math/rand"
)

// A minimal dense neural-network substrate: linear layers, ReLU, and the
// Adam optimizer, with hand-written backpropagation. It exists to implement
// the Zero Shot plan-structured baseline (Hilprecht & Binnig) that the paper
// compares against in Figures 1, 10, and 12 — a model family that is
// accurate but orders of magnitude slower to evaluate than T3's compiled
// trees.

// linear is a fully connected layer y = W·x + b.
type linear struct {
	in, out int
	w       []float64 // out × in, row-major
	b       []float64

	// gradient accumulators
	dW []float64
	dB []float64

	// Adam state
	mW, vW []float64
	mB, vB []float64
}

// newLinear initializes a layer with He-scaled random weights.
func newLinear(rng *rand.Rand, in, out int) *linear {
	l := &linear{in: in, out: out}
	l.w = make([]float64, in*out)
	l.b = make([]float64, out)
	scale := math.Sqrt(2.0 / float64(in))
	for i := range l.w {
		l.w[i] = rng.NormFloat64() * scale
	}
	l.dW = make([]float64, in*out)
	l.dB = make([]float64, out)
	l.mW = make([]float64, in*out)
	l.vW = make([]float64, in*out)
	l.mB = make([]float64, out)
	l.vB = make([]float64, out)
	return l
}

// forward computes the layer output for input x.
func (l *linear) forward(x []float64) []float64 {
	out := make([]float64, l.out)
	for o := 0; o < l.out; o++ {
		s := l.b[o]
		row := l.w[o*l.in : (o+1)*l.in]
		for i, xi := range x {
			s += row[i] * xi
		}
		out[o] = s
	}
	return out
}

// backward accumulates gradients given the input x and the output gradient
// dy, and returns the input gradient dx.
func (l *linear) backward(x, dy []float64) []float64 {
	dx := make([]float64, l.in)
	for o := 0; o < l.out; o++ {
		g := dy[o]
		l.dB[o] += g
		row := l.w[o*l.in : (o+1)*l.in]
		drow := l.dW[o*l.in : (o+1)*l.in]
		for i, xi := range x {
			drow[i] += g * xi
			dx[i] += row[i] * g
		}
	}
	return dx
}

// adam applies one Adam update with the accumulated gradients and clears
// them. step is the 1-based global step for bias correction.
func (l *linear) adam(lr float64, step int) {
	const (
		b1  = 0.9
		b2  = 0.999
		eps = 1e-8
	)
	c1 := 1 - math.Pow(b1, float64(step))
	c2 := 1 - math.Pow(b2, float64(step))
	for i, g := range l.dW {
		l.mW[i] = b1*l.mW[i] + (1-b1)*g
		l.vW[i] = b2*l.vW[i] + (1-b2)*g*g
		l.w[i] -= lr * (l.mW[i] / c1) / (math.Sqrt(l.vW[i]/c2) + eps)
		l.dW[i] = 0
	}
	for i, g := range l.dB {
		l.mB[i] = b1*l.mB[i] + (1-b1)*g
		l.vB[i] = b2*l.vB[i] + (1-b2)*g*g
		l.b[i] -= lr * (l.mB[i] / c1) / (math.Sqrt(l.vB[i]/c2) + eps)
		l.dB[i] = 0
	}
}

// relu applies max(0, x) in place and returns x.
func relu(x []float64) []float64 {
	for i, v := range x {
		if v < 0 {
			x[i] = 0
		}
	}
	return x
}

// reluGrad zeroes the gradient where the forward activation was clipped.
func reluGrad(activated, dy []float64) []float64 {
	for i := range dy {
		if activated[i] <= 0 {
			dy[i] = 0
		}
	}
	return dy
}

// mlp is a stack of linear layers with ReLU between them (none after the
// final layer).
type mlp struct {
	layers []*linear
}

// newMLP builds an MLP with the given layer sizes, e.g. (rng, 16, 32, 1).
func newMLP(rng *rand.Rand, sizes ...int) *mlp {
	if len(sizes) < 2 {
		panic("experiments: MLP needs at least two sizes")
	}
	m := &mlp{}
	for i := 0; i+1 < len(sizes); i++ {
		m.layers = append(m.layers, newLinear(rng, sizes[i], sizes[i+1]))
	}
	return m
}

// mlpTrace stores the intermediate activations of one forward pass,
// enabling backprop through arbitrary composition (e.g. recursive plan
// encoders).
type mlpTrace struct {
	// acts[0] is the input; acts[i] is the post-activation output of layer
	// i-1.
	acts [][]float64
}

// forward runs the MLP, recording activations into a fresh trace.
func (m *mlp) forward(x []float64) (*mlpTrace, []float64) {
	tr := &mlpTrace{acts: make([][]float64, 0, len(m.layers)+1)}
	cur := x
	tr.acts = append(tr.acts, cur)
	for i, l := range m.layers {
		out := l.forward(cur)
		if i+1 < len(m.layers) {
			relu(out)
		}
		tr.acts = append(tr.acts, out)
		cur = out
	}
	return tr, cur
}

// infer runs the MLP without recording a trace (prediction path).
func (m *mlp) infer(x []float64) []float64 {
	cur := x
	for i, l := range m.layers {
		out := l.forward(cur)
		if i+1 < len(m.layers) {
			relu(out)
		}
		cur = out
	}
	return cur
}

// backward backpropagates dy through the trace, accumulating parameter
// gradients, and returns the gradient w.r.t. the input.
func (m *mlp) backward(tr *mlpTrace, dy []float64) []float64 {
	grad := append([]float64(nil), dy...)
	for i := len(m.layers) - 1; i >= 0; i-- {
		if i+1 < len(m.layers) {
			reluGrad(tr.acts[i+1], grad)
		}
		grad = m.layers[i].backward(tr.acts[i], grad)
	}
	return grad
}

// adam updates all layers.
func (m *mlp) adam(lr float64, step int) {
	for _, l := range m.layers {
		l.adam(lr, step)
	}
}
