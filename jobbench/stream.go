package main

// Job streams. The seed is the only source of a stream: kernel draws, job
// kinds, policy subsets, break-even bounds, difftest seed ranges and
// arrival times all come from it, and the program under test receives only
// the generated specs.

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"github.com/amnesiac-sim/amnesiac/internal/harness"
	"github.com/amnesiac-sim/amnesiac/internal/server"
	"github.com/amnesiac-sim/amnesiac/internal/workloads"
)

// kernelNames are the responsive kernels every workload draws from.
func kernelNames() []string {
	var out []string
	for _, w := range workloads.Responsive() {
		out = append(out, w.Name)
	}
	return out
}

// rounds yields item indices in rounds: each round is a fresh seeded
// permutation of all n items, so every whole round holds each item once.
// Closed-loop workloads measure whole rounds, which keeps the job mix of
// a run — and with it the latency percentiles — independent of the seed's
// order.
type rounds struct {
	rng  *rand.Rand
	perm []int
	pos  int
}

func newRounds(seed int64, n int) *rounds {
	return &rounds{rng: rand.New(rand.NewSource(seed)), perm: make([]int, n), pos: n}
}

func (r *rounds) next() int {
	if r.pos == len(r.perm) {
		copy(r.perm, r.rng.Perm(len(r.perm)))
		r.pos = 0
	}
	r.pos++
	return r.perm[r.pos-1]
}

// closedJob is one job of a closed-loop workload.
type closedJob struct {
	Kernel string
	Kind   string // server.KindSuite or server.KindBreakEven
}

// closedItems lists the items one round of a closed-loop workload draws:
// cold-suite runs a suite job per kernel; warm-sweep runs a suite job and
// a break-even sweep per kernel.
func closedItems(workload string) []closedJob {
	var items []closedJob
	for _, k := range kernelNames() {
		items = append(items, closedJob{k, server.KindSuite})
		if workload == "warm-sweep" {
			items = append(items, closedJob{k, server.KindBreakEven})
		}
	}
	return items
}

// Serve-mix composition. Kernel jobs run at serveScale on artifacts the
// set-up warms; fresh submissions arrive at servePerSecond per kind, and a
// third as many again repeat an earlier spec (a quarter of all
// submissions), so the median still lands on executed jobs. Over 20 s each
// kind covers its kernels a whole number of times.
//
// The mix is shaped so that its percentiles fall among jobs of like cost,
// where a few jobs more or less on either side do not move them: the
// longest class is checkpoint jobs on the five kernels where they cost
// about the same (0.3 s), four per kernel with checkpoint intervals one to
// four instructions past the derived one (the same work under distinct
// specs), about 15% of submissions so that the tail percentile lies inside
// the class; break-even sweeps run on the nine kernels whose sweep ends at
// its bound (fe and bfs bisect for up to a second, which warm-sweep
// measures), and suite jobs run one to three policies.
const serveScale = 0.1

var (
	serveKinds     = []string{server.KindSuite, server.KindDifftest, server.KindBreakEven, server.KindCheckpoint}
	servePerSecond = map[string]float64{
		server.KindSuite:      1.65,
		server.KindDifftest:   1.65,
		server.KindBreakEven:  0.45,
		server.KindCheckpoint: 1,
	}
	// serveCheckpoints is how many checkpoint specs each kernel has.
	serveCheckpoints = 4
	serveMaxR        = []float64{25, 50, 100, 200}
	serveKernels     = map[string][]string{
		server.KindBreakEven:  {"mcf", "sx", "cg", "is", "ca", "fs", "rt", "bp", "sr"},
		server.KindCheckpoint: {"cg", "rt", "bp", "bfs", "sr"},
	}
)

// checkpointInterval is the i-th checkpoint interval of a kernel that
// retires instrs instructions: 1+i past the harness's derived interval of
// about an eighth of the run.
func checkpointInterval(instrs uint64, i int) uint64 { return instrs/8 + 2 + uint64(i) }

// subsetPool hands out each kernel's policy subsets without repeats: one
// seeded order per kernel and subset size.
type subsetPool [][][][]string // [kernel][size][draw]

func policySubsets(rng *rand.Rand, kernels int) subsetPool {
	labels := harness.PolicyLabels
	bySize := make([][][]string, len(labels)+1)
	for mask := 1; mask < 1<<len(labels); mask++ {
		var set []string
		for b, l := range labels {
			if mask&(1<<b) != 0 {
				set = append(set, l)
			}
		}
		bySize[len(set)] = append(bySize[len(set)], set)
	}
	pool := make(subsetPool, kernels)
	for k := range pool {
		pool[k] = make([][][]string, len(bySize))
		for size, sets := range bySize {
			for _, i := range rng.Perm(len(sets)) {
				pool[k][size] = append(pool[k][size], sets[i])
			}
		}
	}
	return pool
}

// next returns an unused subset of kernel k with size policies, or of the
// next size up (wrapping) that has one left; nil when none is left.
func (p subsetPool) next(k, size int) []string {
	n := len(p[k]) - 1
	for d := 0; d < n; d++ {
		s := (size-1+d)%n + 1
		if sets := p[k][s]; len(sets) > 0 {
			p[k][s] = sets[1:]
			return sets[0]
		}
	}
	return nil
}

// serveJob is one open-loop submission, due At after the stream starts.
type serveJob struct {
	At     time.Duration
	Spec   server.JobSpec
	Repeat bool // resubmits an earlier spec of the stream
}

// serveStream generates the serve-mix submissions for a window. Each kind
// walks its kernels in seeded rounds, so that every kernel gets its share;
// the cost-setting parameters are spread evenly rather than drawn, so that
// a run's work does not vary with the seed: kernel k's i-th suite job runs
// (k+i) mod 3 + 1 policies (which ones the seed picks, never the same set
// twice), its i-th break-even sweep bound is serveMaxR[(k+i) mod 4], its
// i-th checkpoint interval is checkpointInterval(instrs, i), and difftest
// sweeps run 20 to 50 programs in even steps from seeded starts. instrs
// holds each kernel's classic instruction count at serveScale.
// A kind stops when its kernels run out of distinct specs. Arrivals are a
// Poisson process conditioned on the submission count: uniform points over
// the window, sorted, so a run's offered load does not vary with the seed.
func serveStream(seed int64, window time.Duration, instrs map[string]uint64) []serveJob {
	rng := rand.New(rand.NewSource(seed))
	var fresh []server.JobSpec
	for _, kind := range serveKinds {
		kernels := kernelNames()
		if ks, ok := serveKernels[kind]; ok {
			kernels = ks
		}
		n := int(math.Round(window.Seconds() * servePerSecond[kind]))
		pick := newRounds(rng.Int63(), len(kernels))
		subsets := policySubsets(rng, len(kernels))
		uses := make([]int, len(kernels))
		for i := 0; i < n; i++ {
			spec := server.JobSpec{Kind: kind}
			if kind == server.KindDifftest {
				spec.Seed = 1 + rng.Int63n(1<<40)
				spec.Seeds = 20 + i*30/max(1, n-1)
				fresh = append(fresh, spec)
				continue
			}
			k := pick.next()
			use := uses[k]
			uses[k]++
			spec.Workloads, spec.Scale = []string{kernels[k]}, serveScale
			switch kind {
			case server.KindSuite:
				spec.Policies = subsets.next(k, (k+use)%3+1)
			case server.KindBreakEven:
				if use >= len(serveMaxR) {
					continue
				}
				spec.MaxR = serveMaxR[(k+use)%len(serveMaxR)]
			case server.KindCheckpoint:
				if use >= serveCheckpoints {
					continue
				}
				spec.CkptInterval = checkpointInterval(instrs[kernels[k]], use)
			}
			if spec.Kind == server.KindSuite && spec.Policies == nil {
				continue // every subset of this kernel is taken
			}
			fresh = append(fresh, spec)
		}
	}
	rng.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })

	total := len(fresh) + len(fresh)/3
	repeatAt := map[int]bool{}
	for _, p := range rng.Perm(total - 1)[:len(fresh)/3] {
		repeatAt[p+1] = true // never the first submission
	}
	at := make([]float64, total)
	for i := range at {
		at[i] = rng.Float64() * window.Seconds()
	}
	sort.Float64s(at)
	out := make([]serveJob, 0, total)
	next := 0
	for i := 0; i < total; i++ {
		j := serveJob{At: time.Duration(at[i] * float64(time.Second))}
		if repeatAt[i] {
			j.Spec, j.Repeat = fresh[rng.Intn(next)], true
		} else {
			j.Spec = fresh[next]
			next++
		}
		out = append(out, j)
	}
	return out
}
