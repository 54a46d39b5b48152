//! Path delay bounds: `Tmax` and `Tmin` (§3.1, Figs. 1–2).
//!
//! * `Tmax` — the "pseudo-upper bound (at minimum area)": every gate at
//!   the minimum available drive.
//! * `Tmin` — the inferior bound, obtained by cancelling `∂T/∂C_IN(i)`
//!   for every interior gate: the eq. (4) link equations
//!   `C_IN(i) = √( (A_i/A_{i−1}) · C_IN(i−1) · C_L(i) )`,
//!   solved by the paper's iterative backward/forward sweeps from an
//!   initial solution seeded at `C_REF` (Fig. 1 shows the trajectory).

use pops_delay::{Edge, Library, PathStage, TimedPath};

use crate::gradient::{input_edges, operating_point};

/// One recorded sweep of the `Tmin` iteration (the data behind Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TminIteration {
    /// `Σ C_IN / C_REF` after this sweep (Fig. 1's x-axis).
    pub total_cin_over_cref: f64,
    /// Path delay after this sweep (ps).
    pub delay_ps: f64,
}

/// Result of the `Tmin` search.
#[derive(Debug, Clone, PartialEq)]
pub struct TminResult {
    /// Sizing achieving the minimum delay.
    pub sizes: Vec<f64>,
    /// The minimum path delay (ps).
    pub delay_ps: f64,
    /// Per-sweep trajectory (for Fig. 1).
    pub trace: Vec<TminIteration>,
    /// Sweeps used.
    pub iterations: usize,
}

/// Both delay bounds of a path.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayBounds {
    /// Minimum achievable delay (ps).
    pub tmin_ps: f64,
    /// Delay with every gate at minimum drive (ps).
    pub tmax_ps: f64,
    /// Sizing achieving `tmin_ps`.
    pub tmin_sizes: Vec<f64>,
}

impl DelayBounds {
    /// Is a constraint achievable by sizing alone (structure conserved)?
    pub fn is_feasible(&self, tc_ps: f64) -> bool {
        tc_ps >= self.tmin_ps
    }
}

/// Options for the `Tmin` fixed-point iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct TminOptions {
    /// Initial interior sizing (fF); the paper seeds with `C_REF`.
    pub start_cin_ff: Option<f64>,
    /// Maximum number of sweeps.
    pub max_sweeps: usize,
    /// Relative convergence tolerance on sizes.
    pub tolerance: f64,
    /// Run the per-coordinate Newton polish on the exact model after the
    /// link-equation sweeps, until a cycle stops paying (drives the
    /// sizing toward the true local — hence, by convexity, global —
    /// minimum of the full model).
    pub polish: bool,
}

impl Default for TminOptions {
    fn default() -> Self {
        TminOptions {
            start_cin_ff: None,
            max_sweeps: 200,
            tolerance: 1e-10,
            polish: true,
        }
    }
}

/// `Tmax`: path delay with all gates at minimum drive.
pub fn tmax(lib: &Library, path: &TimedPath) -> f64 {
    let sizes = path.min_sizes(lib);
    path.delay(lib, &sizes).total_ps
}

/// `Tmin` with default options.
pub fn tmin(lib: &Library, path: &TimedPath) -> TminResult {
    tmin_with(lib, path, &TminOptions::default())
}

/// `Tmin` via the paper's iterative link-equation sweeps (eq. 4).
///
/// Every sweep recomputes the `A_i` coefficients at the current operating
/// point, applies
/// `C_IN(i) ← √((A_i/A_{i−1}) · C_IN(i−1) · C_L(i))` forward over the
/// interior stages, and records the (`ΣC_IN/C_REF`, delay) pair. The
/// paper's observation that "the final value Tmin is conserved whatever
/// is the initial solution, ie the C_REF value" is covered by tests.
pub fn tmin_with(lib: &Library, path: &TimedPath, options: &TminOptions) -> TminResult {
    let n = path.len();
    let cref = lib.min_drive_ff();
    let mut sizes = path.min_sizes(lib);
    if let Some(start) = options.start_cin_ff {
        assert!(start > 0.0, "start size must be positive");
        for s in sizes.iter_mut().skip(1) {
            *s = start;
        }
    }

    let mut trace = Vec::new();
    let mut iterations = 0;
    record(lib, path, &sizes, cref, &mut trace);

    for sweep in 0..options.max_sweeps {
        iterations = sweep + 1;
        let op = operating_point(lib, path, &sizes);
        let mut max_rel_change: f64 = 0.0;
        // Forward sweep over interior stages. C_L(i) uses the *current*
        // neighbour sizes, exactly as the paper's backward-initialized
        // iteration does. The Miller corrections (frozen at the current
        // point) make the fixed point a true stationary point of the
        // full model.
        for i in 1..n {
            let cl = path.stage_load_ff(i, &sizes);
            let upstream = op.a[i - 1] / sizes[i - 1] + op.up_corr[i - 1] + op.own_corr[i];
            let target = (op.a[i] * cl / upstream.max(1e-12)).sqrt();
            let new = target.max(cref);
            max_rel_change = max_rel_change.max((new - sizes[i]).abs() / sizes[i]);
            sizes[i] = new;
        }
        record(lib, path, &sizes, cref, &mut trace);
        if max_rel_change < options.tolerance {
            break;
        }
    }

    if options.polish && n > 1 {
        polish(lib, path, &mut sizes, cref);
        record(lib, path, &sizes, cref, &mut trace);
    }

    let delay_ps = path.delay(lib, &sizes).total_ps;
    TminResult {
        sizes,
        delay_ps,
        trace,
        iterations,
    }
}

/// Compute both bounds.
pub fn delay_bounds(lib: &Library, path: &TimedPath) -> DelayBounds {
    let t = tmin(lib, path);
    DelayBounds {
        tmin_ps: t.delay_ps,
        tmax_ps: tmax(lib, path),
        tmin_sizes: t.sizes,
    }
}

fn record(
    lib: &Library,
    path: &TimedPath,
    sizes: &[f64],
    cref: f64,
    trace: &mut Vec<TminIteration>,
) {
    trace.push(TminIteration {
        total_cin_over_cref: sizes.iter().sum::<f64>() / cref,
        delay_ps: path.delay(lib, sizes).total_ps,
    });
}

/// Cap on polish cycles. Short paths converge long before it; on the
/// suite's 116-stage c6288 paths coordinate descent gains about 1.3%
/// less per cycle than the cycle before, and the cap bounds the cost.
const POLISH_MAX_CYCLES: usize = 64;

/// A polish cycle that lowers the path delay by at most this share of
/// it ends the polish.
const POLISH_REL_GAIN: f64 = 1e-12;

/// Relative finite-difference step of the polish's Newton probes.
const NEWTON_REL_STEP: f64 = 1e-4;

/// Step halvings a Newton move may take before the coordinate is left
/// alone for the cycle.
const NEWTON_HALVINGS: usize = 8;

/// Cyclic per-coordinate descent on the exact model.
///
/// The path delay is unimodal in each coordinate on a bounded path.
/// Each coordinate takes one safeguarded Newton step: slope and
/// curvature come from central differences, the step is halved until it
/// lowers the delay, and a coordinate with no improving step stays put,
/// so the delay never rises. Cycles repeat until one lowers the delay
/// by no more than [`POLISH_REL_GAIN`] of it, or [`POLISH_MAX_CYCLES`]
/// pass.
///
/// **Locality.** Under eqs. (1)–(3) a stage's output transition depends
/// only on its own `C_IN` and its load, not on its input transition, and
/// every edge is fixed by cell polarity. Moving `C_IN(i)` therefore
/// changes the delays of stages `i−1` (its load), `i` (its size) and
/// `i+1` (its input transition) and nothing else, so every probe
/// re-times just that [`ProbeWindow`]: three gate evaluations and no
/// allocation.
///
/// **Cost.** Four probes per coordinate (more only when a step is
/// halved), so O(n) per cycle and, under the cycle cap, O(n) per call.
/// Re-timing the whole path per probe instead would make each cycle
/// O(n²).
fn polish(lib: &Library, path: &TimedPath, sizes: &mut [f64], cref: f64) {
    let in_edges = input_edges(path);
    let total_ps = path.delay(lib, sizes).total_ps;
    for _ in 0..POLISH_MAX_CYCLES {
        let mut gain_ps = 0.0;
        for i in 1..sizes.len() {
            let window = ProbeWindow::new(lib, path, sizes, &in_edges, i);
            if let Some((cin_ff, gain)) = window.newton_move(sizes[i], cref) {
                sizes[i] = cin_ff;
                gain_ps += gain;
            }
        }
        if gain_ps <= POLISH_REL_GAIN * total_ps {
            break;
        }
    }
}

/// The three stages whose delays depend on `C_IN(i)`, `i ≥ 1`, with
/// everything else about them frozen at the current sizing: stage
/// `i−1`'s size and input transition, stage `i`'s load, and stage
/// `i+1`'s size and load. As a function of `C_IN(i)` alone,
/// [`ProbeWindow::delay_ps`] differs from the full path delay by a
/// constant, so the two share their argmin.
struct ProbeWindow<'a> {
    lib: &'a Library,
    stages: &'a [PathStage],
    in_edges: &'a [Edge],
    i: usize,
    prev_cin_ff: f64,
    prev_tau_in_ps: f64,
    own_load_ff: f64,
    /// Stage `i+1`'s size and load, when stage `i` is not the last.
    next: Option<(f64, f64)>,
}

impl<'a> ProbeWindow<'a> {
    fn new(
        lib: &'a Library,
        path: &'a TimedPath,
        sizes: &[f64],
        in_edges: &'a [Edge],
        i: usize,
    ) -> Self {
        debug_assert!(i >= 1, "stage 0 is pinned by the latch");
        let stages = path.stages();
        // τ_out never reads τ_in, so stage i−2's output transition needs
        // only its size and load.
        let prev_tau_in_ps = if i >= 2 {
            lib.delay(
                stages[i - 2].cell,
                sizes[i - 2],
                path.stage_load_ff(i - 2, sizes),
                0.0,
                in_edges[i - 2],
            )
            .output_transition_ps
        } else {
            path.input_transition_ps()
        };
        ProbeWindow {
            lib,
            stages,
            in_edges,
            i,
            prev_cin_ff: sizes[i - 1],
            prev_tau_in_ps,
            own_load_ff: path.stage_load_ff(i, sizes),
            next: (i + 1 < stages.len()).then(|| (sizes[i + 1], path.stage_load_ff(i + 1, sizes))),
        }
    }

    /// One safeguarded Newton move of `C_IN(i)` from `cin_ff`, kept at or
    /// above `cref`: the new size and the delay it saves, or `None` when
    /// no step lowers the window delay. The step is halved until it
    /// pays; a window without positive curvature at `cin_ff` is left
    /// alone.
    fn newton_move(&self, cin_ff: f64, cref: f64) -> Option<(f64, f64)> {
        let h = cin_ff * NEWTON_REL_STEP;
        let here = self.delay_ps(cin_ff);
        let up = self.delay_ps(cin_ff + h);
        let down = self.delay_ps(cin_ff - h);
        let curvature = (up - 2.0 * here + down) / (h * h);
        if !curvature.is_finite() || curvature <= 0.0 {
            return None;
        }
        let mut step = -(up - down) / (2.0 * h) / curvature;
        for _ in 0..NEWTON_HALVINGS {
            let next = (cin_ff + step).max(cref);
            let next_ps = self.delay_ps(next);
            if next_ps < here {
                return Some((next, here - next_ps));
            }
            step *= 0.5;
        }
        None
    }

    /// Summed delay of stages `i−1..=i+1` with `C_IN(i) = cin_ff` (ps).
    fn delay_ps(&self, cin_ff: f64) -> f64 {
        let i = self.i;
        let prev = self.lib.delay(
            self.stages[i - 1].cell,
            self.prev_cin_ff,
            self.stages[i - 1].off_path_load_ff + cin_ff,
            self.prev_tau_in_ps,
            self.in_edges[i - 1],
        );
        let own = self.lib.delay(
            self.stages[i].cell,
            cin_ff,
            self.own_load_ff,
            prev.output_transition_ps,
            self.in_edges[i],
        );
        let mut total = prev.delay_ps + own.delay_ps;
        if let Some((next_cin_ff, next_load_ff)) = self.next {
            total += self
                .lib
                .delay(
                    self.stages[i + 1].cell,
                    next_cin_ff,
                    next_load_ff,
                    own.output_transition_ps,
                    self.in_edges[i + 1],
                )
                .delay_ps;
        }
        total
    }
}

/// Golden-section minimization of a unimodal scalar function on
/// `[lo, hi]`, returning the argmin.
///
/// Exposed because several harness experiments need 1-D searches over
/// the same convex delay landscapes the optimizers exploit.
///
/// # Example
///
/// ```
/// let x = pops_core::bounds::golden_min(|x| (x - 2.0_f64).powi(2), 0.0, 10.0);
/// assert!((x - 2.0).abs() < 1e-6);
/// ```
pub fn golden_min(f: impl Fn(f64) -> f64, lo: f64, hi: f64) -> f64 {
    const INV_PHI: f64 = 0.618_033_988_749_894_8;
    let mut a = lo;
    let mut b = hi;
    let mut c = b - INV_PHI * (b - a);
    let mut d = a + INV_PHI * (b - a);
    let mut fc = f(c);
    let mut fd = f(d);
    for _ in 0..80 {
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            c = b - INV_PHI * (b - a);
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + INV_PHI * (b - a);
            fd = f(d);
        }
        if (b - a).abs() < 1e-9 * (1.0 + b.abs()) {
            break;
        }
    }
    0.5 * (a + b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pops_delay::PathStage;
    use pops_netlist::CellKind;

    fn lib() -> Library {
        Library::cmos025()
    }

    fn chain(n: usize, terminal: f64) -> TimedPath {
        TimedPath::new(
            vec![PathStage::new(CellKind::Inv); n],
            Library::cmos025().min_drive_ff(),
            terminal,
        )
    }

    fn mixed() -> TimedPath {
        use CellKind::*;
        TimedPath::new(
            vec![
                PathStage::new(Inv),
                PathStage::with_load(Nand2, 6.0),
                PathStage::new(Nor2),
                PathStage::new(Inv),
                PathStage::with_load(Nand3, 10.0),
                PathStage::new(Inv),
            ],
            2.7,
            120.0,
        )
    }

    #[test]
    fn tmin_below_tmax() {
        let lib = lib();
        for path in [chain(5, 200.0), mixed()] {
            let b = delay_bounds(&lib, &path);
            assert!(
                b.tmin_ps < b.tmax_ps,
                "tmin {} !< tmax {}",
                b.tmin_ps,
                b.tmax_ps
            );
        }
    }

    #[test]
    fn tmin_is_independent_of_the_start_point() {
        // The paper: "the final value Tmin is conserved whatever is the
        // initial solution, ie the CREF value".
        let lib = lib();
        let path = mixed();
        let mut results = Vec::new();
        for start in [2.7, 10.0, 40.0, 120.0] {
            let r = tmin_with(
                &lib,
                &path,
                &TminOptions {
                    start_cin_ff: Some(start),
                    ..Default::default()
                },
            );
            results.push(r.delay_ps);
        }
        for w in results.windows(2) {
            assert!(
                (w[0] - w[1]).abs() < 1e-3 * w[0],
                "Tmin differs across starts: {results:?}"
            );
        }
    }

    #[test]
    fn tmin_gradient_vanishes_in_the_interior() {
        let lib = lib();
        let path = mixed();
        let r = tmin(&lib, &path);
        let grad = path.gradient(&lib, &r.sizes);
        // Scale: compare against the gradient magnitude at min sizes.
        let ref_grad = path
            .gradient(&lib, &path.min_sizes(&lib))
            .iter()
            .map(|g| g.abs())
            .fold(0.0f64, f64::max);
        for (i, g) in grad.iter().enumerate().skip(1) {
            // Clamped-at-CREF coordinates may keep positive gradient.
            if r.sizes[i] > lib.min_drive_ff() * 1.001 {
                assert!(
                    g.abs() < 0.02 * ref_grad,
                    "stage {i} gradient {g} (ref {ref_grad})"
                );
            }
        }
    }

    #[test]
    fn no_random_probe_beats_tmin() {
        let lib = lib();
        let path = mixed();
        let r = tmin(&lib, &path);
        // Deterministic pseudo-random probes around the optimum.
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut rand = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..200 {
            let mut probe = r.sizes.clone();
            for p in probe.iter_mut().skip(1) {
                *p = (*p * (0.25 + 3.0 * rand())).max(lib.min_drive_ff());
            }
            let d = path.delay(&lib, &probe).total_ps;
            assert!(d >= r.delay_ps - 1e-6, "probe {d} < tmin {}", r.delay_ps);
        }
    }

    #[test]
    fn trace_is_recorded_and_delay_monotonically_improves_late() {
        let lib = lib();
        let path = chain(7, 400.0);
        let r = tmin(&lib, &path);
        assert!(r.trace.len() >= 3);
        // Final recorded delay equals the reported Tmin.
        let last = r.trace.last().unwrap();
        assert!((last.delay_ps - r.delay_ps).abs() < 1e-9);
        // The trace ends strictly better than it starts (Fig. 1's descent).
        assert!(r.trace[0].delay_ps > r.delay_ps);
    }

    #[test]
    fn single_gate_path_has_equal_bounds() {
        let lib = lib();
        let path = chain(1, 50.0);
        let b = delay_bounds(&lib, &path);
        assert!((b.tmin_ps - b.tmax_ps).abs() < 1e-9);
    }

    #[test]
    fn heavier_terminal_load_raises_tmin() {
        let lib = lib();
        let light = delay_bounds(&lib, &chain(5, 50.0));
        let heavy = delay_bounds(&lib, &chain(5, 500.0));
        assert!(heavy.tmin_ps > light.tmin_ps);
    }

    #[test]
    fn feasibility_uses_tmin() {
        let lib = lib();
        let b = delay_bounds(&lib, &chain(4, 100.0));
        assert!(b.is_feasible(b.tmin_ps * 1.01));
        assert!(!b.is_feasible(b.tmin_ps * 0.99));
    }

    #[test]
    fn golden_min_finds_parabola_vertex() {
        let x = golden_min(|x| (x - 3.25) * (x - 3.25), 0.0, 10.0);
        assert!((x - 3.25).abs() < 1e-6);
    }

    /// The full-path polish this module used before [`ProbeWindow`]:
    /// every golden probe clones the sizes and re-times the whole path,
    /// for six fixed cycles. Kept as the differential oracle.
    fn polish_oracle(lib: &Library, path: &TimedPath, sizes: &mut [f64], cref: f64) {
        for _ in 0..6 {
            for i in 1..sizes.len() {
                let best = golden_min(
                    |c| {
                        let mut probe = sizes.to_vec();
                        probe[i] = c;
                        path.delay(lib, &probe).total_ps
                    },
                    cref,
                    (sizes[i] * 16.0).max(cref * 64.0),
                );
                sizes[i] = best;
            }
        }
    }

    /// `Tmin` through the same link sweeps, finished by the oracle polish.
    fn tmin_oracle(lib: &Library, path: &TimedPath) -> f64 {
        let mut sizes = tmin_with(
            lib,
            path,
            &TminOptions {
                polish: false,
                ..Default::default()
            },
        )
        .sizes;
        polish_oracle(lib, path, &mut sizes, lib.min_drive_ff());
        path.delay(lib, &sizes).total_ps
    }

    /// The top-20 most critical paths of the six flow-benchmark suite
    /// circuits at minimum sizing, extracted as bounded paths.
    fn suite_paths(lib: &Library) -> Vec<(&'static str, TimedPath)> {
        use pops_sta::{analyze, extract_timed_path, k_most_critical_paths};
        use pops_sta::{ExtractOptions, Sizing};
        let mut out = Vec::new();
        for name in ["fpd", "c432", "c880", "c1908", "c6288", "c7552"] {
            let circuit = pops_netlist::suite::circuit(name).expect("suite circuit");
            let sizing = Sizing::minimum(&circuit, lib);
            let report = analyze(&circuit, lib, &sizing).expect("suite circuits time");
            for path in k_most_critical_paths(&circuit, &report, 20) {
                let extracted =
                    extract_timed_path(&circuit, lib, &sizing, &path, &ExtractOptions::default());
                out.push((name, extracted.timed));
            }
        }
        out
    }

    #[test]
    fn window_polish_never_loses_to_the_full_path_oracle() {
        let lib = lib();
        let paths = suite_paths(&lib);
        assert_eq!(paths.len(), 120, "six circuits, top-20 paths each");
        for (k, (name, path)) in paths.iter().enumerate() {
            let fast = tmin(&lib, path).delay_ps;
            let oracle = tmin_oracle(&lib, path);
            assert!(
                fast <= oracle * (1.0 + 1e-9),
                "{name} path {k} ({} stages): window polish {fast} > oracle {oracle}",
                path.len()
            );
        }
    }

    #[test]
    fn probe_window_delta_matches_the_full_path_delta() {
        let lib = lib();
        let cref = lib.min_drive_ff();
        let mut paths: Vec<TimedPath> = suite_paths(&lib)
            .into_iter()
            .step_by(7)
            .map(|(_, p)| p)
            .collect();
        paths.extend([mixed(), chain(2, 40.0), chain(7, 400.0)]);
        let mut seed = 0x2545_F491_4F6C_DD1Du64;
        let mut rand = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        for path in &paths {
            let in_edges = input_edges(path);
            for _ in 0..8 {
                let mut sizes = path.min_sizes(&lib);
                for s in sizes.iter_mut().skip(1) {
                    *s = cref * (1.0 + 40.0 * rand());
                }
                let base_ps = path.delay(&lib, &sizes).total_ps;
                for i in 1..path.len() {
                    let window = ProbeWindow::new(&lib, path, &sizes, &in_edges, i);
                    let probe = cref * (1.0 + 80.0 * rand());
                    let mut moved = sizes.clone();
                    moved[i] = probe;
                    let full_delta = path.delay(&lib, &moved).total_ps - base_ps;
                    let window_delta = window.delay_ps(probe) - window.delay_ps(sizes[i]);
                    assert!(
                        (full_delta - window_delta).abs() <= 1e-12 * base_ps,
                        "stage {i}/{}: full {full_delta} vs window {window_delta}",
                        path.len()
                    );
                }
            }
        }
    }

    #[test]
    fn tmin_sizes_taper_toward_a_heavy_load() {
        // Classic tapered-buffer shape: monotone increasing sizes.
        let lib = lib();
        let path = chain(4, 600.0);
        let r = tmin(&lib, &path);
        for w in r.sizes.windows(2) {
            assert!(w[1] > w[0], "sizes should taper up: {:?}", r.sizes);
        }
    }
}
