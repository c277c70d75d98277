package core

import (
	"fmt"
	"runtime"
)

// Variant selects how the per-column closed-form solves of Algorithm 1
// treat the cross-entry couplings of Constraint 2.
type Variant int

const (
	// VariantGaussSeidel keeps the couplings between an entry of X_D and
	// its strip/link neighbors on the right-hand side using the current
	// iterate (a block Gauss-Seidel sweep). The default: it is what the
	// constraints mean mathematically.
	VariantGaussSeidel Variant = iota
	// VariantPaper reproduces Algorithm 1 exactly as printed: the
	// quadratic (Q4, Q5) parts of Constraint 2 are kept but the coupling
	// constants are zeroed (C4 = C5 = O, line 21). Available for the
	// ablation benchmark.
	VariantPaper
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case VariantGaussSeidel:
		return "gauss-seidel"
	case VariantPaper:
		return "paper"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// The factorization rank is the number of links M, the paper's choice
// (Fig 5 shows r = M). The remaining solver constants:
const (
	lambda  = 1e-3 // Lagrange/ridge coefficient λ of Eqn 11
	maxIter = 40   // alternating iterations (the paper's t)
	tol     = 1e-6 // relative objective-change convergence tolerance
)

// options holds the reconstruction configuration.
type options struct {
	variant     Variant
	seed        uint64 // random initialization of L̂, set per restart
	useC1       bool
	useC2       bool
	autoScale   bool
	warmStart   bool
	concurrency int // 1 = sequential, <=0 = GOMAXPROCS
}

// workers resolves the configured concurrency to an effective worker
// count.
func (o *options) workers() int {
	if o.concurrency == 1 {
		return 1
	}
	if o.concurrency > 1 {
		return o.concurrency
	}
	return runtime.GOMAXPROCS(0)
}

func defaultOptions() options {
	return options{
		variant:   VariantGaussSeidel,
		useC1:     true,
		useC2:     true,
		autoScale: true,
		// Algorithm 1 initializes L̂ randomly; the SVD warm start is our
		// extension (see the initialization ablation benchmark) and is
		// opt-in via WithWarmStart(true).
		warmStart: false,
		// Sequential by default: the sequential Gauss-Seidel sweep is
		// the bit-exact reference; see WithConcurrency.
		concurrency: 1,
	}
}

// Option configures a Reconstructor.
type Option func(*options)

// WithVariant selects the per-column solve variant.
func WithVariant(v Variant) Option { return func(o *options) { o.variant = v } }

// WithConstraint1 toggles the reference-correlation constraint
// ||LRᵀ - X_R*Z||²F (Constraint 1 of Eqn 18).
func WithConstraint1(on bool) Option { return func(o *options) { o.useC1 = on } }

// WithConstraint2 toggles the continuity and similarity constraints
// ||X_D*G||²F + ||H*X_D||²F (Constraint 2 of Eqn 18).
func WithConstraint2(on bool) Option { return func(o *options) { o.useC2 = on } }

// WithAutoScale toggles the §IV-E magnitude equalization of the objective
// terms. When off, the raw weights are used directly.
func WithAutoScale(on bool) Option { return func(o *options) { o.autoScale = on } }

// WithWarmStart toggles the truncated-SVD warm start of the factors.
// When on, L̂ starts from a rank-r truncated SVD of the mask-filled data
// instead of Algorithm 1's random L0; it converges faster and to better
// optima — measured in the initialization ablation benchmark.
func WithWarmStart(on bool) Option { return func(o *options) { o.warmStart = on } }

// WithConcurrency shards each ALS sweep's independent row/column solves
// over n workers (n <= 0 selects GOMAXPROCS; the default 1 runs
// sequentially). Without Constraint 2 couplings (VariantPaper, or
// Constraint 2 disabled) the parallel sweep is bit-identical to the
// sequential one. Under VariantGaussSeidel the couplings are read from
// a pre-sweep snapshot of X_D (block Jacobi), which keeps the sweep
// deterministic for every worker count but follows a slightly
// different — still convergent — iteration than the sequential
// Gauss-Seidel order.
func WithConcurrency(n int) Option { return func(o *options) { o.concurrency = n } }
