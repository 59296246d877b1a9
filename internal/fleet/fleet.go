// Package fleet routes a stream of task submissions across N independent
// OnlineScheduler shards — the system shape of the paper's §1 OS
// scenario at rack scale, where one placement service fronts many
// reconfigurable devices.
//
// Shards are grouped into tenants: each Tenant owns a contiguous shard
// range with its own route policy and quotas, and routing never crosses a
// tenant boundary. A fleet without explicit tenants is one implicit
// tenant spanning every shard, which reproduces the historical
// single-group behavior exactly.
//
// Every piece of mutable routing state — the round-robin cursor, the p2c
// rng, the drain-time score vector, the sub-batch scratch, the metering
// counters — lives in the tenant's lane, never on the Fleet. That makes
// the tenant the concurrency unit: SubmitBatchTenant, DrainTenant and
// LaneState for distinct tenants may run concurrently from different
// goroutines with zero shared mutable state (TestTenantLanesDisjoint
// pins this under -race). Fleet-wide operations — Drain, Finish,
// RestoreShardBytes, Config mutation — require exclusive access: no lane
// may be active while they run. The service layer's lane locks enforce
// exactly this discipline.
//
// Determinism contract: every routing decision is made in a single
// sequential pass over the batch, before any shard work runs. Round-robin
// advances a per-tenant cursor; least-loaded compares deterministic
// drain-time scores (the shard's committed column-time as of the last
// batch barrier plus a cols×duration estimate for everything already
// routed this batch, both normalized by the shard's column count, ties to
// the lowest shard index); power-of-two-choices draws its two candidates
// from a per-tenant seeded rng consumed in spec order. Only after the
// whole batch is routed do the per-shard SubmitBatch calls run — with
// par.For, over disjoint shards, joined at a barrier — and placements and
// stats are always merged in shard-index order. Results are therefore a
// pure function of (Config, per-tenant submission sequence):
// byte-identical for every GOMAXPROCS AND for any wall-clock interleaving
// of distinct tenants' submissions, which `make determinism` pins by
// diffing fleetload output at GOMAXPROCS 1 vs 8 and multi-tenant-concurrent
// vs single-tenant-serial runs.
//
// Failover rides the same contract: SnapshotShard captures a shard's
// canonical fpga.Snapshot, and RestoreShardBytes swaps a scheduler
// decoded from a snapshot's bytes into the slot between batch barriers;
// LaneState/RestoreLane do the same for the lane's routing state
// (cursor, rng position, meters), which is what lets a daemon checkpoint
// and recover a whole fleet byte-identically (see internal/service).
// Because snapshots are canonical and load scores are barrier-refreshed
// from shard state, a crash+restore at a batch boundary continues
// byte-identically to the uninterrupted run (see DESIGN.md).
package fleet

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"strippack/internal/fpga"
	"strippack/internal/par"
	"strippack/internal/workload"
)

// Route selects how the fleet picks a shard for each submission.
type Route int

const (
	// RouteRR assigns submissions round-robin, ignoring load (skipping
	// shards too narrow for the task under heterogeneous ShardCols).
	RouteRR Route = iota
	// RouteLeast assigns each submission to the shard with the least
	// committed column-time per column — the estimated drain time (ties
	// to the lowest shard index).
	RouteLeast
	// RouteP2C samples two shards uniformly from a seeded rng and takes
	// the less loaded of the two — the classic power-of-two-choices
	// balancer, near-least-loaded quality at O(1) probe cost.
	RouteP2C
)

func (r Route) String() string {
	switch r {
	case RouteRR:
		return "rr"
	case RouteLeast:
		return "least"
	case RouteP2C:
		return "p2c"
	}
	return fmt.Sprintf("Route(%d)", int(r))
}

// ParseRoute maps the cmd-line names rr/least/p2c to a Route.
func ParseRoute(s string) (Route, error) {
	switch s {
	case "rr", "round-robin":
		return RouteRR, nil
	case "least", "least-loaded":
		return RouteLeast, nil
	case "p2c", "power-of-two":
		return RouteP2C, nil
	}
	return 0, fmt.Errorf("fleet: unknown route %q (want rr, least or p2c)", s)
}

// Quota errors. Both are returned before any routing or shard work runs,
// so a refused batch leaves the lane's shards untouched; the refusal is
// recorded in the lane's Meter.
var (
	// ErrQuotaTaskCols marks a batch containing a task wider than the
	// tenant's MaxTaskCols quota.
	ErrQuotaTaskCols = errors.New("fleet: task exceeds tenant MaxTaskCols quota")
	// ErrQuotaBacklog marks a batch refused because the tenant's total
	// waiting backlog has reached its MaxBacklog quota.
	ErrQuotaBacklog = errors.New("fleet: tenant backlog quota exceeded")
)

// ParseShardCols maps the cmd-line "8,8,32,32" syntax to a per-shard
// column slice for Config.ShardCols. Empty input means nil (homogeneous
// fleet from Config.Columns).
func ParseShardCols(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	cols := make([]int, len(parts))
	for i, p := range parts {
		k, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || k < 1 {
			return nil, fmt.Errorf("fleet: bad shard columns %q (want comma-separated positive ints)", s)
		}
		cols[i] = k
	}
	return cols, nil
}

// ParseTenants maps the cmd-line "name:shards[:route[:maxbacklog[:maxcols]]],..."
// syntax to a tenant list for Config.Tenants. A tenant with no route (or
// an empty route field) inherits fallback (the fleet-wide route flag);
// quota fields default to 0 = unlimited. Empty input means nil (the
// implicit single tenant).
func ParseTenants(s string, fallback Route) ([]Tenant, error) {
	if s == "" {
		return nil, nil
	}
	var out []Tenant
	for _, spec := range strings.Split(s, ",") {
		fields := strings.Split(spec, ":")
		if len(fields) < 2 || len(fields) > 5 || fields[0] == "" {
			return nil, fmt.Errorf("fleet: bad tenant %q (want name:shards[:route[:maxbacklog[:maxcols]]])", spec)
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil || n < 1 {
			return nil, fmt.Errorf("fleet: bad tenant shard count in %q", spec)
		}
		t := Tenant{Name: fields[0], Shards: n, Route: fallback}
		if len(fields) >= 3 && fields[2] != "" {
			if t.Route, err = ParseRoute(fields[2]); err != nil {
				return nil, err
			}
		}
		if len(fields) >= 4 && fields[3] != "" {
			if t.MaxBacklog, err = strconv.Atoi(fields[3]); err != nil || t.MaxBacklog < 0 {
				return nil, fmt.Errorf("fleet: bad tenant backlog quota in %q", spec)
			}
		}
		if len(fields) == 5 && fields[4] != "" {
			if t.MaxTaskCols, err = strconv.Atoi(fields[4]); err != nil || t.MaxTaskCols < 0 {
				return nil, fmt.Errorf("fleet: bad tenant max-cols quota in %q", spec)
			}
		}
		out = append(out, t)
	}
	return out, nil
}

// Tenant declares one tenant-scoped shard group. Tenants partition the
// fleet's shards into contiguous ranges in declaration order: the first
// tenant owns shards [0, Shards), the next the following range, and so
// on; the per-tenant counts must sum to Config.Shards. Each tenant routes
// its own submissions with its own Route policy (cursor and rng state are
// per tenant — tenant i's p2c rng is seeded Config.Seed + i), and routing
// never places a tenant's task outside its range.
type Tenant struct {
	// Name addresses the tenant (service endpoints route by name). Must
	// be non-empty and unique within the fleet.
	Name string
	// Shards is the size of the tenant's contiguous shard range.
	Shards int
	// Route is the tenant's placement policy.
	Route Route
	// MaxBacklog, when > 0, caps the tenant's total waiting backlog
	// (sum of Waiting over its shards, measured at the batch barrier):
	// a batch arriving at or above the cap is refused whole with
	// ErrQuotaBacklog before any routing runs.
	MaxBacklog int
	// MaxTaskCols, when > 0, caps the column width of any submitted
	// task: a batch containing a wider task is refused whole with
	// ErrQuotaTaskCols before any routing runs.
	MaxTaskCols int
}

// Config describes a fleet. Columns and ReconfigDelay describe each
// shard's device; ShardCols, when set (len == Shards), gives each shard
// its own column count and Columns is ignored. Admission applies to every
// shard. Tenants partitions the shards into routed groups; nil means one
// implicit tenant named "default" spanning every shard with Config.Route.
// Seed feeds the power-of-two-choices rngs (tenant i draws from
// Seed + i).
type Config struct {
	Shards        int
	Columns       int
	ShardCols     []int // optional, len == Shards when set
	ReconfigDelay float64
	Policy        fpga.Policy
	Admission     fpga.AdmissionConfig
	Route         Route
	Tenants       []Tenant // optional, shard counts must sum to Shards
	Seed          int64
}

// Placement records where the fleet put one task.
type Placement struct {
	Shard int
	Task  fpga.Task
}

// Meter is a tenant's cumulative submission accounting. Submitted counts
// every spec offered to the lane; Refused counts specs bounced by the
// lane itself (quota or routing) before reaching any shard; Placed counts
// returned placements and ColTime their summed cols×duration. Specs a
// shard's admission control skips (shed/reject) are neither Placed nor
// Refused here — they appear in the shard's own LoadStats/ChurnStats.
// Meters are a pure function of the tenant's submission sequence, so a
// recovered lane's meter replays byte-identically.
type Meter struct {
	Submitted int
	Placed    int
	Refused   int
	ColTime   float64
}

// LaneState is the durable image of one tenant lane's mutable routing
// state — everything SubmitBatchTenant consumes besides shard state:
// the round-robin cursor, the number of p2c rng draws consumed (the rng
// is repositioned by replaying that many draws from the lane's seed),
// and the metering counters. Together with the per-shard canonical
// snapshots this is sufficient to checkpoint and recover a fleet
// byte-identically (the service layer's checkpoint format embeds it).
type LaneState struct {
	Name     string
	RR       int
	RNGDraws uint64
	Meter    Meter
}

// lane is one tenant's execution lane: the shard range plus every piece
// of mutable routing/admission state the tenant's submissions touch.
// Distinct lanes share nothing mutable, which is what makes per-tenant
// operations safe to run concurrently for distinct tenants.
type lane struct {
	name         string
	first, count int
	route        Route
	maxBacklog   int
	maxTaskCols  int

	needScores bool       // route is load-aware (least or p2c)
	rr         int        // round-robin cursor
	rng        *rand.Rand // p2c only
	rngDraws   uint64     // Intn calls consumed, for LaneState replay
	meter      Meter

	load     loadTree          // per-lane-shard drain-time estimates, indexed s-first
	subs     [][]fpga.TaskSpec // per-lane-shard sub-batch scratch, indexed s-first
	placedBy [][]fpga.Task     // per-lane-shard placement scratch, indexed s-first
}

// Fleet is a router over independent scheduler shards, partitioned into
// tenant lanes. Methods on the same lane (SubmitBatchTenant, DrainTenant,
// LaneState, RestoreLane with equal ti) are not safe for
// concurrent use with each other; methods on distinct lanes are. All
// other methods (Drain, Finish, iteration over Shard, SnapshotShard,
// RestoreShardBytes, ...) require exclusive access to the whole fleet.
// The goroutines that run per-shard work are invisible to callers.
type Fleet struct {
	cfg    Config
	shards []*fpga.OnlineScheduler
	cols   []int // resolved per-shard column count
	lanes  []lane
}

func validRoute(r Route) bool {
	return r == RouteRR || r == RouteLeast || r == RouteP2C
}

// New builds a fleet of cfg.Shards schedulers. Each shard gets its own
// Device value, so shards never share mutable state.
func New(cfg Config) (*Fleet, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("fleet: need at least 1 shard, got %d", cfg.Shards)
	}
	if cfg.ShardCols != nil {
		if len(cfg.ShardCols) != cfg.Shards {
			return nil, fmt.Errorf("fleet: ShardCols has %d entries for %d shards", len(cfg.ShardCols), cfg.Shards)
		}
		for i, k := range cfg.ShardCols {
			if k < 1 {
				return nil, fmt.Errorf("fleet: shard %d has %d columns", i, k)
			}
		}
	} else if cfg.Columns < 1 {
		return nil, fmt.Errorf("fleet: need at least 1 column per shard, got %d", cfg.Columns)
	}
	if !validRoute(cfg.Route) {
		return nil, fmt.Errorf("fleet: unknown route %d", int(cfg.Route))
	}
	f := &Fleet{
		cfg:    cfg,
		shards: make([]*fpga.OnlineScheduler, cfg.Shards),
		cols:   make([]int, cfg.Shards),
	}
	// Tenant partition: explicit list or the implicit all-shards default.
	decl := cfg.Tenants
	if decl == nil {
		decl = []Tenant{{Name: "default", Shards: cfg.Shards, Route: cfg.Route}}
	}
	seen := make(map[string]bool, len(decl))
	first := 0
	for ti, t := range decl {
		if t.Name == "" {
			return nil, fmt.Errorf("fleet: tenant %d has no name", ti)
		}
		if seen[t.Name] {
			return nil, fmt.Errorf("fleet: duplicate tenant name %q", t.Name)
		}
		seen[t.Name] = true
		if t.Shards < 1 {
			return nil, fmt.Errorf("fleet: tenant %q owns %d shards", t.Name, t.Shards)
		}
		if !validRoute(t.Route) {
			return nil, fmt.Errorf("fleet: tenant %q: unknown route %d", t.Name, int(t.Route))
		}
		if t.MaxBacklog < 0 {
			return nil, fmt.Errorf("fleet: tenant %q: negative MaxBacklog %d", t.Name, t.MaxBacklog)
		}
		if t.MaxTaskCols < 0 {
			return nil, fmt.Errorf("fleet: tenant %q: negative MaxTaskCols %d", t.Name, t.MaxTaskCols)
		}
		ln := lane{
			name: t.Name, first: first, count: t.Shards, route: t.Route,
			maxBacklog: t.MaxBacklog, maxTaskCols: t.MaxTaskCols,
			needScores: t.Route != RouteRR,
			load:       loadTree{score: make([]float64, t.Shards)},
			subs:       make([][]fpga.TaskSpec, t.Shards),
			placedBy:   make([][]fpga.Task, t.Shards),
		}
		if t.Route == RouteP2C {
			ln.rng = rand.New(rand.NewSource(cfg.Seed + int64(ti)))
		}
		f.lanes = append(f.lanes, ln)
		first += t.Shards
	}
	if first != cfg.Shards {
		return nil, fmt.Errorf("fleet: tenants own %d shards, fleet has %d", first, cfg.Shards)
	}
	for i := range f.shards {
		k := cfg.Columns
		if cfg.ShardCols != nil {
			k = cfg.ShardCols[i]
		}
		f.cols[i] = k
		o, err := fpga.NewOnlineSchedulerAdmission(
			&fpga.Device{Columns: k, ReconfigDelay: cfg.ReconfigDelay},
			cfg.Policy, cfg.Admission)
		if err != nil {
			return nil, fmt.Errorf("fleet: shard %d: %w", i, err)
		}
		f.shards[i] = o
	}
	return f, nil
}

// Shards returns the shard count.
func (f *Fleet) Shards() int { return len(f.shards) }

// Cols returns shard i's column count.
func (f *Fleet) Cols(i int) int { return f.cols[i] }

// ShardColumns returns the resolved per-shard column counts (a copy).
func (f *Fleet) ShardColumns() []int {
	out := make([]int, len(f.cols))
	copy(out, f.cols)
	return out
}

// Config returns a copy of the fleet's configuration with the optional
// slices cloned, so callers cannot alias internal state.
func (f *Fleet) Config() Config {
	cfg := f.cfg
	if cfg.ShardCols != nil {
		cfg.ShardCols = append([]int(nil), cfg.ShardCols...)
	}
	if cfg.Tenants != nil {
		cfg.Tenants = append([]Tenant(nil), cfg.Tenants...)
	}
	return cfg
}

// Tenants returns the number of tenant groups (>= 1: a fleet without
// explicit tenants has the implicit all-shards "default" tenant).
func (f *Fleet) Tenants() int { return len(f.lanes) }

// TenantRange returns tenant ti's name and contiguous shard range
// [first, first+count).
func (f *Fleet) TenantRange(ti int) (name string, first, count int) {
	t := &f.lanes[ti]
	return t.name, t.first, t.count
}

// Meters returns every tenant's cumulative metering counters, in tenant
// order (a copy). Requires exclusive access (it reads every lane).
func (f *Fleet) Meters() []Meter {
	out := make([]Meter, len(f.lanes))
	for ti := range f.lanes {
		out[ti] = f.lanes[ti].meter
	}
	return out
}

// LaneState captures tenant ti's durable routing state — the lane half
// of a fleet checkpoint (SnapshotShard covers the shard half). Safe to
// call concurrently with *other* tenants' lane operations.
func (f *Fleet) LaneState(ti int) (LaneState, error) {
	if ti < 0 || ti >= len(f.lanes) {
		return LaneState{}, fmt.Errorf("fleet: tenant %d out of range [0, %d)", ti, len(f.lanes))
	}
	t := &f.lanes[ti]
	return LaneState{Name: t.name, RR: t.rr, RNGDraws: t.rngDraws, Meter: t.meter}, nil
}

// RestoreLane restores tenant ti's routing state from a LaneState
// captured on an equally-configured fleet: the cursor and meters are
// copied and the p2c rng is repositioned by replaying RNGDraws draws
// from the lane's seed. Every field is validated against the lane's
// shape first, so a state from a different tenant layout cannot
// silently change routing. Must be called between the lane's batches.
func (f *Fleet) RestoreLane(ti int, ls LaneState) error {
	if ti < 0 || ti >= len(f.lanes) {
		return fmt.Errorf("fleet: tenant %d out of range [0, %d)", ti, len(f.lanes))
	}
	t := &f.lanes[ti]
	if ls.Name != t.name {
		return fmt.Errorf("fleet: restore lane %d: state is for tenant %q, lane is %q", ti, ls.Name, t.name)
	}
	if t.route == RouteRR {
		if ls.RR < 0 || ls.RR >= t.count {
			return fmt.Errorf("fleet: restore lane %d: rr cursor %d out of range [0, %d)", ti, ls.RR, t.count)
		}
	} else if ls.RR != 0 {
		return fmt.Errorf("fleet: restore lane %d: rr cursor %d on non-rr lane", ti, ls.RR)
	}
	if t.route != RouteP2C && ls.RNGDraws != 0 {
		return fmt.Errorf("fleet: restore lane %d: %d rng draws on non-p2c lane", ti, ls.RNGDraws)
	}
	m := ls.Meter
	if m.Submitted < 0 || m.Placed < 0 || m.Refused < 0 || !(m.ColTime >= 0) {
		return fmt.Errorf("fleet: restore lane %d: negative meter %+v", ti, m)
	}
	if m.Placed+m.Refused > m.Submitted {
		return fmt.Errorf("fleet: restore lane %d: meter places+refuses %d of %d submitted", ti, m.Placed+m.Refused, m.Submitted)
	}
	if t.route == RouteP2C {
		// Reposition by replay: the rng's draw sequence is a pure
		// function of (seed, draw count), and route() consumes exactly
		// two draws per spec, so this lands the stream exactly where the
		// captured lane left it.
		rng := rand.New(rand.NewSource(f.cfg.Seed + int64(ti)))
		for i := uint64(0); i < ls.RNGDraws; i++ {
			rng.Intn(t.count)
		}
		t.rng = rng
	}
	t.rr = ls.RR
	t.rngDraws = ls.RNGDraws
	t.meter = ls.Meter
	return nil
}

// Shard exposes one underlying scheduler — for snapshotting, equivalence
// tests and per-shard inspection. Submitting to it directly bypasses the
// router and is the caller's responsibility.
func (f *Fleet) Shard(i int) *fpga.OnlineScheduler { return f.shards[i] }

// SnapshotShard captures shard i's canonical state — whose bytes
// (fpga.AppendSnapshot) RestoreShardBytes consumes. The
// fpga.Snapshot is canonical: equal-behavior shards snapshot
// byte-identically, which is what makes the failover replay argument in
// DESIGN.md work. Safe to call concurrently with other tenants' lane
// operations as long as shard i's own lane is quiescent.
func (f *Fleet) SnapshotShard(i int) (*fpga.Snapshot, error) {
	if i < 0 || i >= len(f.shards) {
		return nil, fmt.Errorf("fleet: shard %d out of range [0, %d)", i, len(f.shards))
	}
	return f.shards[i].Snapshot(), nil
}

// RestoreShardBytes swaps a freshly restored scheduler into slot i and
// returns the bytes after its snapshot — the failover hook: restore a
// shard's last durable snapshot in place without stopping the fleet. It
// decodes the snapshot at the front of b (fpga.DecodeScheduler, which
// validates it fully) straight into a fresh scheduler, with no
// fpga.Snapshot built, and the scheduler must match the slot's geometry
// and policy configuration, so a snapshot from a different shard shape
// cannot silently change the fleet. Checkpoint recovery reads each shard
// this way. Requires exclusive access (it mutates the shard table); the
// continuation is then byte-identical to the uninterrupted run —
// routing state lives in the owning lane, and the next batch barrier
// re-reads the restored shard's (canonical, hence identical) load.
func (f *Fleet) RestoreShardBytes(i int, b []byte) ([]byte, error) {
	if i < 0 || i >= len(f.shards) {
		return nil, fmt.Errorf("fleet: shard %d out of range [0, %d)", i, len(f.shards))
	}
	o, rest, err := fpga.DecodeScheduler(b)
	if err != nil {
		return nil, fmt.Errorf("fleet: restore shard %d: %w", i, err)
	}
	d := o.Device()
	switch {
	case d.Columns != f.cols[i]:
		err = fmt.Errorf("snapshot has %d columns, shard has %d", d.Columns, f.cols[i])
	case d.ReconfigDelay != f.cfg.ReconfigDelay:
		err = fmt.Errorf("snapshot reconfig delay %g, fleet %g", d.ReconfigDelay, f.cfg.ReconfigDelay)
	case o.Policy() != f.cfg.Policy:
		err = fmt.Errorf("snapshot policy %v, fleet %v", o.Policy(), f.cfg.Policy)
	case o.Admission() != f.cfg.Admission:
		err = fmt.Errorf("snapshot admission %+v, fleet %+v", o.Admission(), f.cfg.Admission)
	}
	if err != nil {
		return nil, fmt.Errorf("fleet: restore shard %d: %w", i, err)
	}
	f.shards[i] = o
	return rest, nil
}

// route picks the lane's shard for one spec and charges the routing
// estimate. Only shards wide enough for the task are eligible; an error
// means no shard in the tenant's range can ever hold the task. All state
// it touches is lane-owned.
func (f *Fleet) route(t *lane, sp *fpga.TaskSpec) (int, error) {
	fits := func(s int) bool { return sp.Cols <= f.cols[s] }
	s := -1
	switch t.route {
	case RouteRR:
		for j := 0; j < t.count; j++ {
			c := t.first + (t.rr+j)%t.count
			if fits(c) {
				s = c
				t.rr = (t.rr + j + 1) % t.count
				break
			}
		}
	case RouteLeast:
		if j := t.load.least(sp.Cols); j >= 0 {
			s = t.first + j
		}
	case RouteP2C:
		// The rng is always consumed exactly twice per spec, so the draw
		// sequence is independent of task widths.
		a := t.first + t.rng.Intn(t.count)
		b := t.first + t.rng.Intn(t.count)
		t.rngDraws += 2
		score := t.load.score
		switch {
		case fits(a) && fits(b):
			s = a
			if score[b-t.first] < score[a-t.first] || (score[b-t.first] == score[a-t.first] && b < a) {
				s = b
			}
		case fits(a):
			s = a
		case fits(b):
			s = b
		default:
			if j := t.load.least(sp.Cols); j >= 0 {
				s = t.first + j
			}
		}
	}
	if s < 0 {
		return 0, fmt.Errorf("fleet: task %d needs %d columns, wider than every shard of tenant %q", sp.ID, sp.Cols, t.name)
	}
	if t.needScores {
		t.load.add(s-t.first, float64(sp.Cols)*sp.Duration/float64(f.cols[s]))
	}
	return s, nil
}

// refresh is the batch barrier: every lane shard is quiescent, so its
// committed column-time is exact. It resets the lane's drain-time scores
// to it (load-aware routes only) and returns the lane's total waiting
// backlog for the quota check.
func (f *Fleet) refresh(t *lane) (waiting int) {
	for j := 0; j < t.count; j++ {
		ld := f.shards[t.first+j].Load()
		if t.needScores {
			t.load.score[j] = ld.CommittedColTime / float64(f.cols[t.first+j])
		}
		waiting += ld.Waiting
	}
	if t.needScores {
		t.load.rebuild(f.cols[t.first : t.first+t.count])
	}
	return waiting
}

// routeBatch routes every spec in input order into the lane's per-shard
// sub-batches, on top of the scores of the last refresh.
func (f *Fleet) routeBatch(t *lane, specs []fpga.TaskSpec) error {
	for j := range t.subs {
		t.subs[j] = t.subs[j][:0]
	}
	for i := range specs {
		s, err := f.route(t, &specs[i])
		if err != nil {
			return err
		}
		t.subs[s-t.first] = append(t.subs[s-t.first], specs[i])
	}
	return nil
}

// SubmitBatch submits the batch to tenant 0 — the whole fleet when no
// explicit tenants are configured, the first declared tenant otherwise.
func (f *Fleet) SubmitBatch(specs []fpga.TaskSpec) ([]Placement, error) {
	return f.SubmitBatchTenant(0, specs)
}

// SubmitBatchTenant routes the batch within tenant ti's shard range
// (sequentially, in input order), submits each shard's sub-batch through
// the shard's own SubmitBatch (in parallel, with par.For), and
// returns the placements merged in shard-index order, each shard's in its
// own (release, index) submission order. Quotas are enforced before any
// routing: a batch over the tenant's MaxTaskCols or MaxBacklog quota is
// refused whole with a typed error and no shard is touched. Submissions
// refused by a shard's admission control are skipped, exactly as
// OnlineScheduler.SubmitBatch skips them. A routing error (task wider
// than every tenant shard) aborts before any shard work runs. A hard
// error from any shard aborts with the lowest-index shard's error;
// placements already made on other shards stay, so a fleet that returned
// a hard error should be discarded.
//
// Distinct tenants may call SubmitBatchTenant concurrently: the batch
// only touches lane-owned state and the lane's own shards.
func (f *Fleet) SubmitBatchTenant(ti int, specs []fpga.TaskSpec) ([]Placement, error) {
	if ti < 0 || ti >= len(f.lanes) {
		return nil, fmt.Errorf("fleet: tenant %d out of range [0, %d)", ti, len(f.lanes))
	}
	if len(specs) == 0 {
		return nil, nil
	}
	t := &f.lanes[ti]
	t.meter.Submitted += len(specs)
	if t.maxTaskCols > 0 {
		for i := range specs {
			if specs[i].Cols > t.maxTaskCols {
				t.meter.Refused += len(specs)
				return nil, fmt.Errorf("%w: task %d needs %d columns, tenant %q allows %d",
					ErrQuotaTaskCols, specs[i].ID, specs[i].Cols, t.name, t.maxTaskCols)
			}
		}
	}
	// Barrier refresh; in-batch routing then works from this base plus the
	// normalized cols×duration estimates route() accrues. The same pass
	// sums the waiting backlog for the quota.
	if t.needScores || t.maxBacklog > 0 {
		if waiting := f.refresh(t); t.maxBacklog > 0 && waiting >= t.maxBacklog {
			t.meter.Refused += len(specs)
			return nil, fmt.Errorf("%w: tenant %q has %d waiting, quota %d",
				ErrQuotaBacklog, t.name, waiting, t.maxBacklog)
		}
	}
	if err := f.routeBatch(t, specs); err != nil {
		t.meter.Refused += len(specs)
		return nil, err
	}
	// Each shard appends into its own buffer, kept across batches: the
	// placements are copied into placed below, before this call returns.
	for j := range t.placedBy {
		t.placedBy[j] = t.placedBy[j][:0]
	}
	err := par.For(t.count, func(_, j int) error {
		if len(t.subs[j]) == 0 {
			return nil
		}
		tasks, err := f.shards[t.first+j].SubmitBatch(t.placedBy[j], t.subs[j])
		t.placedBy[j] = tasks
		if err != nil {
			return fmt.Errorf("fleet: shard %d: %w", t.first+j, err)
		}
		return nil
	})
	total := 0
	for _, tasks := range t.placedBy {
		total += len(tasks)
	}
	var placed []Placement
	if total > 0 {
		placed = make([]Placement, 0, total)
	}
	for j, tasks := range t.placedBy {
		for _, pt := range tasks {
			placed = append(placed, Placement{Shard: t.first + j, Task: pt})
			t.meter.ColTime += float64(pt.Cols) * pt.Duration
		}
	}
	t.meter.Placed += len(placed)
	return placed, err
}

// Drain processes every registered completion on every shard. Requires
// exclusive access; DrainTenant is the lane-scoped counterpart.
func (f *Fleet) Drain() error {
	for ti := range f.lanes {
		if err := f.DrainTenant(ti); err != nil {
			return err
		}
	}
	return nil
}

// DrainTenant processes every registered completion on tenant ti's
// shards. Distinct tenants may drain concurrently.
func (f *Fleet) DrainTenant(ti int) error {
	if ti < 0 || ti >= len(f.lanes) {
		return fmt.Errorf("fleet: tenant %d out of range [0, %d)", ti, len(f.lanes))
	}
	t := &f.lanes[ti]
	return par.For(t.count, func(_, j int) error {
		if err := f.shards[t.first+j].Drain(); err != nil {
			return fmt.Errorf("fleet: shard %d: %w", t.first+j, err)
		}
		return nil
	})
}

// Stats aggregates a fleet churn run. PerShard is indexed by shard.
type Stats struct {
	Shards int
	// Tasks is the total number of submissions offered to the fleet.
	Tasks int
	// Admitted counts tasks that ran to completion, fleet-wide; Rejected
	// and Shed are the admission-control counterparts.
	// Admitted + Rejected + Shed == Tasks.
	Admitted, Rejected, Shed int
	// Makespan is the latest completion across shards; Utilization is
	// total busy column-time / (total columns × Makespan).
	Makespan, Utilization float64
	// MeanWait is the mean of Start - Release over all admitted tasks.
	MeanWait float64
	// MaxBacklog is the largest per-shard peak backlog.
	MaxBacklog int
	PerShard   []fpga.ChurnStats
}

// Finish drains every shard, re-verifies each shard's schedule through
// the discrete-event simulator (so a routing or batching bug that
// double-books a column fails loudly), and aggregates the per-shard
// stats in shard-index order. Requires exclusive access.
func (f *Fleet) Finish() (*Stats, error) {
	if err := f.Drain(); err != nil {
		return nil, err
	}
	per := make([]fpga.ChurnStats, len(f.shards))
	err := par.For(len(f.shards), func(_, i int) error {
		o := f.shards[i]
		sched := o.Schedule()
		sim, simErr := sched.Simulate()
		if simErr != nil {
			return fmt.Errorf("fleet: shard %d schedule failed simulation: %w", i, simErr)
		}
		ld := o.Load()
		reclaimed, passes, moved := o.ReclaimStats()
		st := fpga.ChurnStats{
			Makespan:            sim.Makespan,
			Utilization:         sim.Utilization,
			ReclaimedColumnTime: reclaimed,
			CompactPasses:       passes,
			TasksMoved:          moved,
			Admitted:            len(sched.Tasks),
			Rejected:            ld.Rejected,
			Shed:                ld.Shed,
			MaxBacklog:          ld.MaxWaiting,
		}
		if len(sched.Tasks) > 0 {
			var wait float64
			for _, t := range sched.Tasks {
				wait += t.Start - t.Release
			}
			st.MeanWait = wait / float64(len(sched.Tasks))
		}
		per[i] = st
		return nil
	})
	if err != nil {
		return nil, err
	}
	agg := &Stats{Shards: len(f.shards), PerShard: per}
	var busy, wait float64
	var totalCols int
	for i, st := range per {
		agg.Admitted += st.Admitted
		agg.Rejected += st.Rejected
		agg.Shed += st.Shed
		agg.Tasks += st.Admitted + st.Rejected + st.Shed
		if st.Makespan > agg.Makespan {
			agg.Makespan = st.Makespan
		}
		if st.MaxBacklog > agg.MaxBacklog {
			agg.MaxBacklog = st.MaxBacklog
		}
		busy += st.Utilization * float64(f.cols[i]) * st.Makespan
		wait += st.MeanWait * float64(st.Admitted)
		totalCols += f.cols[i]
	}
	if agg.Makespan > 0 {
		agg.Utilization = busy / (float64(totalCols) * agg.Makespan)
	}
	if agg.Admitted > 0 {
		agg.MeanWait = wait / float64(agg.Admitted)
	}
	return agg, nil
}

// Specs converts a window of a churn trace into submission specs, with
// IDs offset by base so IDs stay unique across chunks of a stream.
func Specs(tasks []workload.ChurnTask, base int) []fpga.TaskSpec {
	specs := make([]fpga.TaskSpec, len(tasks))
	for i, ct := range tasks {
		specs[i] = fpga.TaskSpec{
			ID:       base + i,
			Cols:     ct.Cols,
			Duration: ct.Duration,
			Actual:   ct.Lifetime,
			Release:  ct.Release,
		}
	}
	return specs
}

// RunChurn replays a churn trace through a fresh fleet in batches of
// `chunk` tasks, then finishes and aggregates — the fleet counterpart of
// fpga.RunChurn, and the driver the E15 experiment table uses. Results
// are a pure function of (cfg, tasks, chunk).
func RunChurn(tasks []workload.ChurnTask, cfg Config, chunk int) (*Stats, error) {
	if len(tasks) == 0 {
		return nil, fmt.Errorf("fleet: empty churn workload")
	}
	if chunk < 1 {
		return nil, fmt.Errorf("fleet: chunk must be >= 1, got %d", chunk)
	}
	f, err := New(cfg)
	if err != nil {
		return nil, err
	}
	for base := 0; base < len(tasks); base += chunk {
		end := base + chunk
		if end > len(tasks) {
			end = len(tasks)
		}
		if _, err := f.SubmitBatch(Specs(tasks[base:end], base)); err != nil {
			return nil, err
		}
	}
	return f.Finish()
}
