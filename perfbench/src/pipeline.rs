//! `paper_pipeline`: the paper's own matrix. Nyx and WarpX at
//! `Scale::Tiny`, both paper compressors at `rel_eb = 1e-3`, each cell run
//! compress → decompress → all three isosurface methods → flatten → PSNR
//! and SSIM, with the worker pool at two threads.

use crate::report::{Metric, Outcome};
use crate::stats::{geomean, median, percentile, quartiles, tail_percentile};
use crate::trace::{self, span};
use amrviz_amr::resample::{flatten_levels_to_finest, Upsample};
use amrviz_amr::MultiFab;
use amrviz_compress::{
    compress_hierarchy_field, decompress_hierarchy_field_into, AmrCodecConfig, DecodeBudget,
    DecodePolicy, ErrorBound,
};
use amrviz_core::experiment::CompressorKind;
use amrviz_core::scenario::{Application, BuiltScenario};
use amrviz_metrics::{quality, rssim, ssim3, SsimConfig};
use amrviz_rng::Rng;
use amrviz_sim::Scale;
use amrviz_viz::{extract_amr_isosurface, IsoMethod, TriMesh};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The paper's scenarios at the scale where one pass of the matrix takes
/// 1.0–1.6 s on a 2-core x86-64 box; at `Scale::Small` a pass takes about
/// 14 s, longer than a whole run.
pub const SCALE: Scale = Scale::Tiny;
/// Generator seed of the matrix data. The data are the same for every run
/// seed, so seeds do not change the amount of work; the run seed sets the
/// order the cells run in.
pub const DATA_SEED: u64 = 1;
pub const REL_EB: f64 = 1e-3;
pub const THREADS: usize = 2;
/// Passes needed before cross-pass identity can be checked.
const MIN_PASSES: usize = 2;

/// Span name per extraction method, in `IsoMethod::ALL` order.
const METHOD_SPANS: [&str; 3] = ["viz.resampling", "viz.dual", "viz.dual_redundant"];

/// Everything one cell produces that must repeat exactly on every pass.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutput {
    pub label: String,
    pub n_values: usize,
    pub out_bytes: usize,
    pub abs_eb: f64,
    /// Largest |original − decoded| over every cell of every level.
    pub max_level_err: f64,
    pub psnr: f64,
    pub ssim: f64,
    pub triangles: [usize; 3],
    pub fingerprints: [u64; 3],
}

impl CellOutput {
    pub fn compression_ratio(&self) -> f64 {
        (self.n_values * 8) as f64 / self.out_bytes as f64
    }
}

/// Seconds spent in each layer call during one pass.
#[derive(Debug, Clone, Default)]
pub struct PassTimes {
    pub compress: f64,
    pub decompress: f64,
    pub methods: [f64; 3],
    pub flatten: f64,
    pub quality: f64,
    pub ssim: f64,
}

impl PassTimes {
    pub fn total(&self) -> f64 {
        self.compress
            + self.decompress
            + self.methods.iter().sum::<f64>()
            + self.flatten
            + self.quality
            + self.ssim
    }
}

pub struct Pipeline {
    scenarios: Vec<BuiltScenario>,
    /// Decode buffers per (scenario, compressor), reused across passes.
    levels: Vec<Vec<MultiFab>>,
}

/// Times `f`, adding the seconds to `acc`, inside a span named `name`.
fn timed<T>(acc: &mut f64, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
    let _sp = span(name, id);
    let t = Instant::now();
    let out = black_box(f());
    *acc += t.elapsed().as_secs_f64();
    out
}

impl Pipeline {
    /// Generates both paper scenarios.
    pub fn build() -> Pipeline {
        let scenarios: Vec<BuiltScenario> = [Application::Nyx, Application::Warpx]
            .into_iter()
            .map(|app| BuiltScenario::from_spec(app.spec(SCALE, DATA_SEED)))
            .collect();
        let cells = scenarios.len() * CompressorKind::PAPER.len();
        Pipeline {
            scenarios,
            levels: (0..cells).map(|_| Vec::new()).collect(),
        }
    }

    pub fn values_per_pass(&self) -> usize {
        self.scenarios
            .iter()
            .map(|b| {
                let f = b.hierarchy.field(b.spec.eval_field()).expect("eval field");
                f.levels.iter().map(MultiFab::num_cells).sum::<usize>()
            })
            .sum::<usize>()
            * CompressorKind::PAPER.len()
    }

    /// One pass over the matrix, running cells in the order `order` gives
    /// (a permutation of cell indices); outputs come back in cell order.
    /// Checks run between layer calls and are excluded from the returned
    /// times.
    pub fn pass(
        &mut self,
        id: u64,
        order: &[usize],
    ) -> Result<(PassTimes, Vec<CellOutput>), String> {
        let _pass = span("pipeline.pass", id);
        let mut t = PassTimes::default();
        let mut outputs: Vec<Option<CellOutput>> = vec![None; self.levels.len()];
        let cfg = AmrCodecConfig::default();
        let kinds = CompressorKind::PAPER;
        for &cell in order {
            let built = &self.scenarios[cell / kinds.len()];
            let kind = kinds[cell % kinds.len()];
            let field = built.spec.eval_field();
            let orig = &built
                .hierarchy
                .field(field)
                .map_err(|e| e.to_string())?
                .levels;
            {
                let _cell = span("pipeline.cell", id);
                let comp = kind.instance();
                let label = format!("{}/{}", built.spec.label(), kind.label());
                let compressed = timed(&mut t.compress, "compress", id, || {
                    compress_hierarchy_field(
                        &built.hierarchy,
                        field,
                        comp.as_ref(),
                        ErrorBound::Rel(REL_EB),
                        &cfg,
                    )
                })
                .map_err(|e| format!("{label}: compress: {e}"))?;
                let levels = &mut self.levels[cell];
                let report = timed(&mut t.decompress, "decompress", id, || {
                    decompress_hierarchy_field_into(
                        &built.hierarchy,
                        &compressed,
                        comp.as_ref(),
                        &cfg,
                        DecodePolicy::Strict,
                        &DecodeBudget::default(),
                        levels,
                    )
                })
                .map_err(|e| format!("{label}: decompress: {e}"))?;
                if !report.is_clean() {
                    return Err(format!("{label}: decode report not clean"));
                }
                let max_level_err = {
                    let _c = span("bench.check", id);
                    max_level_error(orig, levels)
                };
                let mut triangles = [0; 3];
                let mut fingerprints = [0; 3];
                for (m, method) in IsoMethod::ALL.into_iter().enumerate() {
                    let res = timed(&mut t.methods[m], METHOD_SPANS[m], id, || {
                        extract_amr_isosurface(&built.hierarchy, levels, built.iso, method)
                    });
                    let _c = span("bench.check", id);
                    triangles[m] = res.total_triangles();
                    fingerprints[m] = res
                        .level_meshes
                        .iter()
                        .fold(0u64, |h, mesh| h.rotate_left(17) ^ mesh_fingerprint(mesh));
                }
                let recon = timed(&mut t.flatten, "amr.flatten", id, || {
                    flatten_levels_to_finest(&built.hierarchy, levels, Upsample::PiecewiseConstant)
                })
                .map_err(|e| format!("{label}: flatten: {e}"))?;
                let q = timed(&mut t.quality, "metrics.quality", id, || {
                    quality(&built.uniform.data, &recon.data)
                });
                let ssim = timed(&mut t.ssim, "metrics.ssim", id, || {
                    ssim3(
                        &built.uniform.data,
                        &recon.data,
                        built.uniform.dims(),
                        &SsimConfig::default(),
                    )
                });
                outputs[cell] = Some(CellOutput {
                    label,
                    n_values: compressed.n_values,
                    out_bytes: compressed.compressed_bytes(),
                    abs_eb: compressed.abs_eb,
                    max_level_err: worst_error(max_level_err, q.max_abs_err),
                    psnr: q.psnr,
                    ssim,
                    triangles,
                    fingerprints,
                });
            }
        }
        let outputs = outputs.into_iter().collect::<Option<Vec<_>>>();
        Ok((t, outputs.ok_or("the order skipped a cell")?))
    }

    pub fn cells(&self) -> usize {
        self.levels.len()
    }
}

/// The seeded order cells run in on pass `id`.
fn order(seed: u64, id: u64, n: usize) -> Vec<usize> {
    let mut rng = Rng::seed(seed).fork(id);
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
    v
}

/// The larger of two errors, NaN when either is: `f64::max` would drop it.
pub fn worst_error(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else {
        a.max(b)
    }
}

/// Largest pointwise error between two level sets of identical structure;
/// NaN when any decoded value is NaN, infinite when the structures differ.
pub fn max_level_error(orig: &[MultiFab], recon: &[MultiFab]) -> f64 {
    if orig.len() != recon.len() {
        return f64::INFINITY;
    }
    let mut worst = 0.0f64;
    for (a, b) in orig.iter().zip(recon) {
        if a.len() != b.len() {
            return f64::INFINITY;
        }
        for (fa, fb) in a.fabs().iter().zip(b.fabs()) {
            if fa.data().len() != fb.data().len() {
                return f64::INFINITY;
            }
            for (x, y) in fa.data().iter().zip(fb.data()) {
                worst = worst_error(worst, (x - y).abs());
            }
        }
    }
    worst
}

/// Whether a reconstruction error honours its bound; a NaN error does not.
pub fn within_bound(err: f64, bound: f64) -> bool {
    err <= bound
}

/// Order-independent mesh fingerprint: each triangle becomes its three
/// corner positions (quantized, rotated so the smallest leads, winding
/// kept), hashed, and the hashes are summed. Vertex numbering and triangle
/// order do not change it; moving any corner does.
pub fn mesh_fingerprint(mesh: &TriMesh) -> u64 {
    let q = |v: f64| {
        let r = (v * 1e9).round();
        if r == 0.0 {
            0i64
        } else {
            r as i64
        }
    };
    let mut sum = mesh.triangles.len() as u64;
    for t in &mesh.triangles {
        let c = t.map(|vi| mesh.vertices[vi as usize].map(q));
        let lead = (0..3).min_by_key(|&i| c[i]).expect("three corners");
        let mut h: u64 = 0xcbf29ce484222325;
        for k in 0..3 {
            for x in c[(lead + k) % 3] {
                h = (h ^ x as u64).wrapping_mul(0x100000001b3);
                h ^= h >> 29;
            }
        }
        sum = sum.wrapping_add(h);
    }
    sum
}

/// Checks one pass against the error bound and against the first pass.
pub fn check_pass(outputs: &[CellOutput], first: Option<&[CellOutput]>) -> Vec<String> {
    let mut errors = Vec::new();
    for o in outputs {
        if !within_bound(o.max_level_err, o.abs_eb) {
            errors.push(format!(
                "{}: max abs error {:e} exceeds bound {:e}",
                o.label, o.max_level_err, o.abs_eb
            ));
        }
        if !(o.psnr.is_finite() && o.ssim.is_finite()) {
            errors.push(format!(
                "{}: PSNR {} or SSIM {} is not finite",
                o.label, o.psnr, o.ssim
            ));
        }
    }
    if let Some(first) = first {
        if first.len() != outputs.len() {
            errors.push("cell count changed between passes".into());
        }
        for (a, b) in first.iter().zip(outputs) {
            if a != b {
                errors.push(format!("{}: outputs differ between passes", b.label));
            }
        }
    }
    errors
}

/// Runs the workload for `seconds` of timed passes.
pub fn run(seed: u64, seconds: u64, traced: bool) -> Outcome {
    amrviz_par::set_threads(THREADS);
    let mut out = Outcome::default();
    // `setup_s` is the median of the build the run uses and one more
    // after every second pass: the samples span the run, so one slow spell
    // of the machine cannot set the median.
    let mut setups = Vec::new();
    fn timed_build(setups: &mut Vec<f64>) -> Pipeline {
        let t = Instant::now();
        let p = Pipeline::build();
        setups.push(t.elapsed().as_secs_f64());
        p
    }
    let mut pipe = timed_build(&mut setups);
    let values = pipe.values_per_pass();

    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    let mut first: Option<Vec<CellOutput>> = None;
    let mut dark = Vec::new();
    let mut traced_passes = Vec::new();
    let mut first_pass_rss = None;
    let mut id = 0u64;
    // Dark passes measure the end-to-end figures. A traced run alternates
    // dark and traced passes so both see the same machine state.
    amrviz_par::reset_utilization();
    while id < MIN_PASSES as u64 * if traced { 2 } else { 1 } || started.elapsed() < budget {
        let record = traced && id % 2 == 1;
        trace::set_enabled(record);
        let result = pipe.pass(id, &order(seed, id, pipe.cells()));
        trace::set_enabled(false);
        out.attempted += 1;
        match result {
            Ok((times, outputs)) => {
                let errs = check_pass(&outputs, first.as_deref());
                if !errs.is_empty() {
                    out.failed += 1;
                    out.errors.extend(errs);
                }
                if record {
                    traced_passes.push(times);
                } else {
                    dark.push(times);
                }
                first.get_or_insert(outputs);
            }
            Err(e) => {
                out.failed += 1;
                out.errors.push(e);
            }
        }
        if id == 0 {
            first_pass_rss = crate::report::peak_rss_mb();
        }
        id += 1;
        if id % 2 == 0 {
            drop(timed_build(&mut setups));
        }
    }
    let util = amrviz_par::utilization();
    let Some(cells) = first else {
        return out;
    };
    let pass_s: Vec<f64> = dark.iter().map(PassTimes::total).collect();
    if pass_s.is_empty() {
        out.fail("no dark pass completed".into());
        return out;
    }
    let mvals = values as f64 / 1e6;
    let cr: Vec<f64> = cells.iter().map(CellOutput::compression_ratio).collect();
    let psnr = cells.iter().map(|c| c.psnr).fold(f64::INFINITY, f64::min);
    let worst_rssim = cells.iter().map(|c| rssim(c.ssim)).fold(0.0, f64::max);
    // Throughput of the lower-quartile pass: on a shared machine the passes
    // above it are mostly slowed by other load, so this is the steadier
    // figure for the code's own speed.
    let quick_pass = quartiles(&pass_s).map_or(pass_s[0], |q| q[0]);

    out.metric(Metric::new("setup_s", median(&setups), "s").samples(setups.len()));
    out.note(format!(
        "set-up seconds {:?}",
        setups.iter().map(|s| (s * 1e4).round() / 1e4).collect::<Vec<_>>()
    ));
    // Later passes repeat the same work; the extra peak they add is
    // allocator fragmentation across the pool's threads, which varies by
    // about ±8% from run to run. The whole-run peak goes in a note.
    match first_pass_rss {
        Some(rss) => out.put("peak_rss_mb", rss, "MB"),
        None => out.fail("peak RSS is not readable".into()),
    }
    let pass_ms: Vec<f64> = pass_s.iter().map(|s| s * 1e3).collect();
    // Too few passes for a percentile with ten samples beyond it: the tail
    // is the slowest pass.
    let tail = tail_percentile(pass_ms.len()).unwrap_or(100.0);
    out.metric(Metric::new("mvals_per_s", mvals / quick_pass, "Mval/s").samples(pass_s.len()));
    out.metric(Metric::new("op_p50_ms", median(&pass_ms), "ms").samples(pass_ms.len()));
    out.metric(Metric::new("op_tail_ms", percentile(&pass_ms, tail), "ms").samples(pass_ms.len()));
    out.metric(Metric::new("compression_ratio", geomean(&cr), "x").samples(cells.len()));
    out.metric(Metric::new("psnr_db", psnr, "dB").samples(cells.len()));
    out.metric(Metric::new("rssim", worst_rssim, "1").samples(cells.len()));
    out.note(format!(
        "{} dark passes of {} cells, {:.3} Mvals each; pass seconds {:?}",
        pass_s.len(),
        cells.len(),
        mvals,
        pass_s
            .iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    ));

    if traced {
        // The same matrix once more on a single thread: the pool speed-up,
        // and a check that outputs do not depend on the thread count.
        amrviz_par::set_threads(1);
        let single = pipe.pass(id, &order(seed, id, pipe.cells()));
        amrviz_par::set_threads(THREADS);
        out.attempted += 1;
        let t1_s = match single {
            Ok((times, outputs)) => {
                let errs = check_pass(&outputs, Some(&cells));
                if !errs.is_empty() {
                    out.failed += 1;
                    out.errors.extend(errs);
                }
                times.total()
            }
            Err(e) => {
                out.failed += 1;
                out.errors.push(e);
                f64::NAN
            }
        };
        layer_metrics(&mut out, t1_s, &dark, &traced_passes, mvals, &cells, util);
    }
    out
}

fn layer_metrics(
    out: &mut Outcome,
    t1_s: f64,
    dark: &[PassTimes],
    traced: &[PassTimes],
    mvals: f64,
    cells: &[CellOutput],
    util: amrviz_par::UtilizationReport,
) {
    out.spans = trace::take();
    let by = trace::by_name(&out.spans);
    let passes = by.get("pipeline.pass").map_or(1, |l| l.count).max(1) as f64;
    let per_pass = |name: &str| {
        by.get(name)
            .map_or(0.0, |l| l.self_ns as f64 / 1e9 / passes)
    };
    let m = |v: &dyn Fn(&PassTimes) -> f64| median(&traced.iter().map(v).collect::<Vec<_>>());

    let tris: usize = cells
        .iter()
        .map(|c| c.triangles.iter().sum::<usize>())
        .sum();
    let extract_s = m(&|t| t.methods.iter().sum());
    for (i, name) in ["viz.resampling_s", "viz.dual_s", "viz.dual_redundant_s"]
        .into_iter()
        .enumerate()
    {
        out.put(name, per_pass(METHOD_SPANS[i]), "s");
    }
    out.put("viz.triangles", tris as f64, "count");
    out.put("viz.mtri_per_s", tris as f64 / 1e6 / extract_s, "Mtri/s");
    out.put("metrics.ssim_s", per_pass("metrics.ssim"), "s");
    out.put("metrics.quality_s", per_pass("metrics.quality"), "s");
    out.put("amr.flatten_s", per_pass("amr.flatten"), "s");
    out.put("compress.s", per_pass("compress"), "s");
    out.put("compress.mvals_per_s", mvals / m(&|t| t.compress), "Mval/s");
    let out_bytes: usize = cells.iter().map(|c| c.out_bytes).sum();
    out.put("compress.out_bytes", out_bytes as f64, "B");
    out.put("decompress.s", per_pass("decompress"), "s");
    out.put(
        "decompress.mvals_per_s",
        mvals / m(&|t| t.decompress),
        "Mval/s",
    );

    // Share of pass time (checks excluded) that layer self times cover.
    let pass_total = by.get("pipeline.pass").map_or(0, |l| l.total_ns) as f64;
    let check = by.get("bench.check").map_or(0, |l| l.total_ns) as f64;
    let layers: f64 = [
        "compress",
        "decompress",
        "viz.resampling",
        "viz.dual",
        "viz.dual_redundant",
        "amr.flatten",
        "metrics.quality",
        "metrics.ssim",
    ]
    .iter()
    .map(|n| by.get(n).map_or(0, |l| l.self_ns) as f64)
    .sum();
    out.put(
        "bench.attributed_pct",
        100.0 * layers / (pass_total - check),
        "%",
    );

    let dark_s = median(&dark.iter().map(PassTimes::total).collect::<Vec<_>>());
    let traced_s = m(&PassTimes::total);
    out.put(
        "bench.trace_overhead_pct",
        100.0 * (traced_s / dark_s - 1.0),
        "%",
    );
    out.put("par.busy_frac", util.efficiency().unwrap_or(0.0), "1");

    out.put("par.speedup_vs_t1", t1_s / dark_s, "x");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quad() -> TriMesh {
        TriMesh {
            vertices: vec![
                [0.0, 0.0, 0.0],
                [1.0, 0.0, 0.0],
                [1.0, 1.0, 0.0],
                [0.0, 1.0, 0.5],
            ],
            triangles: vec![[0, 1, 2], [0, 2, 3]],
        }
    }

    fn cell() -> CellOutput {
        CellOutput {
            label: "Nyx/SZ-L/R".into(),
            n_values: 1000,
            out_bytes: 100,
            abs_eb: 1e-3,
            max_level_err: 9e-4,
            psnr: 64.0,
            ssim: 0.9999,
            triangles: [10, 12, 12],
            fingerprints: [1, 2, 3],
        }
    }

    #[test]
    fn fingerprint_ignores_numbering_and_order_but_not_geometry() {
        let m = quad();
        // Same triangles, vertices renumbered, triangles reordered and
        // rotated (winding kept).
        let renumbered = TriMesh {
            vertices: vec![m.vertices[3], m.vertices[2], m.vertices[1], m.vertices[0]],
            triangles: vec![[1, 0, 3], [2, 1, 3]],
        };
        assert_eq!(mesh_fingerprint(&m), mesh_fingerprint(&renumbered));
        let mut moved = m.clone();
        moved.vertices[2][2] += 1e-6;
        assert_ne!(mesh_fingerprint(&m), mesh_fingerprint(&moved));
        let mut flipped = m.clone();
        flipped.triangles[0] = [0, 2, 1];
        assert_ne!(mesh_fingerprint(&m), mesh_fingerprint(&flipped));
    }

    #[test]
    fn checker_rejects_a_perturbed_fingerprint() {
        let first = vec![cell()];
        assert!(check_pass(&first, Some(&first)).is_empty());
        let mut other = cell();
        other.fingerprints[1] ^= 1;
        let errs = check_pass(&[other], Some(&first));
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("differ"));
        let mut fewer = cell();
        fewer.triangles[0] -= 1;
        assert_eq!(check_pass(&[fewer], Some(&first)).len(), 1);
    }

    #[test]
    fn checker_rejects_an_out_of_bound_reconstruction() {
        let mut c = cell();
        c.max_level_err = 1.0000001e-3;
        let errs = check_pass(&[c.clone()], None);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("exceeds bound"));
        c.max_level_err = f64::NAN;
        assert_eq!(check_pass(&[c], None).len(), 1);
    }

    #[test]
    fn max_level_error_sees_every_level() {
        use amrviz_amr::{Box3, BoxArray, IntVect};
        let ba = BoxArray::new(vec![Box3::new(
            IntVect::new(0, 0, 0),
            IntVect::new(1, 1, 1),
        )]);
        let a = vec![MultiFab::zeros(&ba), MultiFab::zeros(&ba)];
        let mut b = a.clone();
        b[1].fabs_mut()[0].data_mut()[3] = 0.25;
        assert_eq!(max_level_error(&a, &a), 0.0);
        assert_eq!(max_level_error(&a, &b), 0.25);
        assert_eq!(max_level_error(&a, &b[..1]), f64::INFINITY);
    }

    #[test]
    fn a_decoded_nan_is_rejected() {
        use amrviz_amr::{Box3, BoxArray, IntVect};
        let ba = BoxArray::new(vec![Box3::new(
            IntVect::new(0, 0, 0),
            IntVect::new(1, 1, 1),
        )]);
        let a = vec![MultiFab::zeros(&ba), MultiFab::zeros(&ba)];
        let mut b = a.clone();
        // A NaN followed by a finite error must still poison the maximum.
        b[0].fabs_mut()[0].data_mut()[2] = f64::NAN;
        b[1].fabs_mut()[0].data_mut()[3] = 1e-4;
        let err = max_level_error(&a, &b);
        assert!(err.is_nan(), "{err}");
        assert!(worst_error(err, 1e-4).is_nan());
        let mut c = cell();
        c.max_level_err = err;
        let errs = check_pass(&[c], None);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("exceeds bound"));
        let mut c = cell();
        c.psnr = f64::NAN;
        let errs = check_pass(&[c], None);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("not finite"));
    }
}
