//! The paper's experiments: regenerates every table and figure. Run
//! through the CLI as `amrviz repro`.
//!
//! ```text
//! amrviz repro <experiment> [--scale tiny|small|medium|paper] [--seed N] [--out DIR]
//! amrviz repro --suite enumerated[:RECIPE] [--seed N] [--out DIR]
//!
//! experiments:
//!   table1   dataset structure (grid sizes, per-level densities)
//!   table2   CR / PSNR / SSIM / R-SSIM for SZ-L/R and SZ-Interp
//!   fig1     cracks vs gaps vs redundant-fix on original data (+ renders)
//!   fig2     AMR solver snapshots with adapting grids (+ slice renders)
//!   fig9     WarpX × SZ-L/R × {re-sampling, dual-cell} × eb sweep
//!   fig10    WarpX × SZ-Interp × methods × eb sweep
//!   fig11    Nyx × both compressors × methods at eb 1e-2
//!   fig12    rate-distortion on WarpX "Ez"
//!   fig13    rate-distortion on Nyx "Density"
//!   fig14    1D block-artifact smoothing demonstration
//!   ablation redundant-coarse-data handling (skip/restore) vs ratio
//!   all      everything above
//!
//! `--suite enumerated` replaces the figure experiments with the
//! recipe-enumerated scenario suite (crates/recipe): the built-in recipe
//! expands to 32 scenarios spanning field family × refinement topology ×
//! level count, and every one runs the CR/PSNR/R-SSIM matrix. Append
//! `:@FILE` to expand a recipe file, or `:(scenario …)` for an inline
//! recipe. Every summary.jsonl run row carries its reproducing canonical
//! recipe string.
//! ```
//!
//! Results print as ASCII tables; renders and machine-readable JSON land in
//! `--out` (default `repro_out/`). The global observability flags
//! (`--threads`, `--flame`, `--journal`, …) come from the CLI like on every
//! other command.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::{fig14_series, step_roughness, RD_EBS};
use amrviz_compress::{
    compress_hierarchy_field, decompress_hierarchy_field, AmrCodecConfig, ErrorBound,
};
use amrviz_core::experiment::{self, standard_camera, CompressorKind};
use amrviz_core::prelude::*;
use amrviz_core::report;
use amrviz_json::{Json, ToJson};
use amrviz_render::{render_slice, Color, RenderOptions, SliceOptions};
use amrviz_sim::solver::{AmrAdvection, FIELD};
use amrviz_viz::extract_amr_isosurface;

/// Resolves a `--suite` value to recipe text: `enumerated` is the
/// built-in suite, `enumerated:@FILE` reads a recipe file, and
/// `enumerated:(scenario …)` is an inline recipe.
fn resolve_suite(v: &str) -> Result<String, String> {
    let rest = v
        .strip_prefix("enumerated")
        .ok_or_else(|| format!("unknown suite `{v}` (try `enumerated[:RECIPE]`)"))?;
    match rest.strip_prefix(':') {
        None if rest.is_empty() => Ok(amrviz_recipe::ENUMERATED_SUITE.to_string()),
        None => Err(format!("unknown suite `{v}` (try `enumerated[:RECIPE]`)")),
        Some(recipe) => match recipe.strip_prefix('@') {
            Some(path) => std::fs::read_to_string(path)
                .map_err(|e| format!("reading recipe file {path}: {e}")),
            None if recipe.is_empty() => Err("empty recipe after `enumerated:`".into()),
            None => Ok(recipe.to_string()),
        },
    }
}

/// Cache of built scenarios (generation is the expensive part).
struct Ctx {
    scale: Scale,
    seed: u64,
    out: PathBuf,
    built: BTreeMap<&'static str, BuiltScenario>,
    json: Json,
    /// Compression runs observed during this invocation (Table 2 rows),
    /// reported in the final `SUMMARY` line.
    runs: Vec<experiment::CompressionRun>,
    /// Wall seconds per top-level obs stage, accumulated across experiments.
    stage_seconds: BTreeMap<String, f64>,
    /// Per-experiment status records (`{name, status, error?}`) for the
    /// `SUMMARY` line; failed experiments don't abort the batch.
    experiments: Vec<Json>,
    /// (ok, degraded, failed) fab decode totals across all experiments.
    decode_fabs: (u64, u64, u64),
}

impl Ctx {
    fn scenario(&mut self, app: Application) -> &BuiltScenario {
        let key = app.label();
        if !self.built.contains_key(key) {
            eprintln!(
                "[repro] generating {key} scenario at {:?} scale…",
                self.scale
            );
            self.built
                .insert(key, Scenario::new(app, self.scale, self.seed).build());
        }
        &self.built[key]
    }

    fn record(&mut self, key: &str, value: impl ToJson) {
        self.json.set(key, value.to_json());
    }

    /// Writes the metrics and the spans that started at or after
    /// `start_ns` into `manifest_<name>.json` and folds the top-level stage
    /// times into the invocation-wide totals.
    fn finish_experiment(&mut self, name: &str, start_ns: u64) {
        let mut events = amrviz_obs::events_snapshot();
        events.retain(|e| e.start_ns >= start_ns);
        let summary = amrviz_obs::summary::build(&events);
        for r in &summary.roots {
            *self.stage_seconds.entry(r.key.clone()).or_insert(0.0) += r.seconds;
        }
        let mut counters = Json::obj();
        for (k, v) in amrviz_obs::counters_snapshot() {
            match k {
                "decode.fabs_ok" => self.decode_fabs.0 += v,
                "decode.fabs_degraded" => self.decode_fabs.1 += v,
                "decode.fabs_failed" => self.decode_fabs.2 += v,
                _ => {}
            }
            counters.set(k, v);
        }
        let mut gauges = Json::obj();
        for (k, v) in amrviz_obs::gauges_snapshot() {
            gauges.set(k, v);
        }
        let mut m = Json::obj();
        m.set("experiment", name)
            .set("scale", format!("{:?}", self.scale).to_lowercase())
            .set("seed", self.seed)
            .set("counters", counters)
            .set("gauges", gauges)
            .set(
                "span_summary",
                Json::parse(&summary.to_json()).unwrap_or(Json::Null),
            );
        let path = self.out.join(format!("manifest_{name}.json"));
        if std::fs::write(&path, m.to_string_pretty()).is_ok() {
            println!("  manifest: {}", path.display());
        }
    }

    fn save_mesh_render(
        &self,
        built: &BuiltScenario,
        levels: &[amrviz_amr::MultiFab],
        method: IsoMethod,
        name: &str,
    ) {
        let res = extract_amr_isosurface(&built.hierarchy, levels, built.iso, method);
        // Frame the surface itself (the paper's panels zoom to the refined
        // region), falling back to the whole domain for empty meshes. The
        // bbox is the union of the per-level boxes — no combined-mesh copy.
        let bbox =
            res.level_meshes
                .iter()
                .filter_map(|m| m.bbox())
                .reduce(|(alo, ahi), (blo, bhi)| {
                    (
                        [alo[0].min(blo[0]), alo[1].min(blo[1]), alo[2].min(blo[2])],
                        [ahi[0].max(bhi[0]), ahi[1].max(bhi[1]), ahi[2].max(bhi[2])],
                    )
                });
        let cam = match bbox {
            Some((lo, hi)) => {
                let center = [
                    0.5 * (lo[0] + hi[0]),
                    0.5 * (lo[1] + hi[1]),
                    0.5 * (lo[2] + hi[2]),
                ];
                let extent = (hi[0] - lo[0])
                    .max(hi[1] - lo[1])
                    .max(hi[2] - lo[2])
                    .max(1e-6);
                let eye = [
                    center[0] - 2.0 * extent,
                    center[1] - 1.2 * extent,
                    center[2] + 1.0 * extent,
                ];
                amrviz_render::Camera::orthographic(eye, center, 0.65 * extent)
            }
            None => standard_camera(built),
        };
        let opts = RenderOptions {
            width: 960,
            height: 720,
            ..Default::default()
        };
        // Color the levels differently so cracks/gaps/overlaps stand out,
        // like the paper's red fine-level box.
        let img = amrviz_render::raster::render_meshes(
            &[
                (&res.level_meshes[0], Color::new(205, 205, 210)),
                (&res.level_meshes[1], Color::new(235, 120, 90)),
            ],
            &cam,
            &opts,
        );
        let path = self.out.join(format!("{name}.png"));
        if let Err(e) = img.save_png(&path) {
            eprintln!("[repro] failed to write {}: {e}", path.display());
        } else {
            println!("  wrote {}", path.display());
        }
    }
}

fn table1(ctx: &mut Ctx) {
    println!("\n=== Table 1: dataset structure ===");
    ctx.scenario(Application::Warpx);
    ctx.scenario(Application::Nyx);
    let rows = experiment::run_table1(&[
        &ctx.built[Application::Warpx.label()],
        &ctx.built[Application::Nyx.label()],
    ]);
    println!("{}", report::format_table1(&rows));
    println!(
        "paper: WarpX 128x128x1024 + 256x256x2048 (91.4% / 8.6%), \
         Nyx 256^3 + 512^3 (59.3% / 40.7%)"
    );
    ctx.record("table1", &rows);
}

fn table2(ctx: &mut Ctx) {
    println!("\n=== Table 2: compression quality ===");
    let mut all = Vec::new();
    for app in Application::ALL {
        let built = ctx.scenario(app);
        let rows = experiment::run_table2(built).expect("table2 runs");
        all.extend(rows);
    }
    println!("{}", report::format_table2(&all));
    ctx.runs.extend(all.iter().cloned());
    ctx.record("table2", &all);
}

fn fig1(ctx: &mut Ctx) {
    println!("\n=== Fig. 1: cracks (re-sampling) vs gaps (dual) vs redundant fix ===");
    let built = ctx.scenario(Application::Warpx);
    let rows = experiment::run_crack_analysis(built);
    println!("{}", report::format_cracks(&rows));
    let field = built.spec.eval_field();
    let levels = built
        .hierarchy
        .field(field)
        .expect("eval field")
        .levels
        .clone();
    let built = &ctx.built[Application::Warpx.label()];
    for (method, name) in [
        (IsoMethod::Resampling, "fig1a_resampling"),
        (IsoMethod::DualCell, "fig1b_dualcell"),
        (IsoMethod::DualCellRedundant, "fig1c_dualcell_redundant"),
    ] {
        ctx.save_mesh_render(built, &levels, method, name);
    }
    ctx.record("fig1", &rows);
}

fn fig2(ctx: &mut Ctx) {
    println!("\n=== Fig. 2: AMR grid adapts across timesteps ===");
    let n = match ctx.scale {
        Scale::Tiny => 16,
        Scale::Small => 32,
        _ => 64,
    };
    let mut sim = AmrAdvection::new(n, [1.0, 0.35, 0.0], 0.02, |p| {
        let r2 = (p[0] - 0.25).powi(2) + (p[1] - 0.35).powi(2) + (p[2] - 0.5).powi(2);
        (-r2 / (2.0 * 0.07f64.powi(2))).exp()
    });
    let mut snapshots: Vec<Json> = Vec::new();
    for snap in 0..3 {
        if snap > 0 {
            sim.run(8);
        }
        let h = sim.hierarchy();
        let bb = h.box_array(1).bounding_box();
        println!(
            "  step {:>3}  t={:.4}  fine boxes: {:>2}  fine cells: {:>8}  bbox: {}",
            h.step,
            sim.time(),
            h.box_array(1).len(),
            h.box_array(1).num_cells(),
            bb.map(|b| b.to_string()).unwrap_or_else(|| "-".into()),
        );
        let img = render_slice(h, FIELD, &SliceOptions::default()).expect("field exists");
        let path = ctx.out.join(format!("fig2_step{}.png", h.step));
        img.save_png(&path).ok();
        println!("  wrote {}", path.display());
        let mut snap_json = Json::obj();
        snap_json
            .set("step", h.step)
            .set("time", sim.time())
            .set("fine_cells", h.box_array(1).num_cells());
        snapshots.push(snap_json);
    }
    ctx.record("fig2", &snapshots);
}

fn figs_9_10(ctx: &mut Ctx, kind: CompressorKind, figname: &str) {
    println!(
        "\n=== {}: WarpX × {} × methods × error bounds ===",
        figname,
        kind.label()
    );
    let built = ctx.scenario(Application::Warpx);
    let rows = experiment::run_viz_quality(
        built,
        kind,
        &[1e-4, 1e-3, 1e-2],
        &[IsoMethod::Resampling, IsoMethod::DualCellRedundant],
    )
    .expect("viz-quality runs");
    println!("{}", report::format_viz_quality(&rows));

    // Render the eb=1e-2 panels (the paper's most visible case).
    let comp = kind.instance();
    let field = built.spec.eval_field();
    let cfg = AmrCodecConfig::default();
    let compressed = compress_hierarchy_field(
        &built.hierarchy,
        field,
        comp.as_ref(),
        ErrorBound::Rel(1e-2),
        &cfg,
    )
    .expect("field exists");
    let levels = decompress_hierarchy_field(&built.hierarchy, &compressed, comp.as_ref(), &cfg)
        .expect("own stream");
    let built = &ctx.built[Application::Warpx.label()];
    let tag = kind.label().replace(['/', '-'], "").to_lowercase();
    ctx.save_mesh_render(
        built,
        &levels,
        IsoMethod::Resampling,
        &format!("{figname}_{tag}_eb1e-2_resampling"),
    );
    ctx.save_mesh_render(
        built,
        &levels,
        IsoMethod::DualCellRedundant,
        &format!("{figname}_{tag}_eb1e-2_dualcell"),
    );
    ctx.record(figname, &rows);
}

fn fig11(ctx: &mut Ctx) {
    println!("\n=== Fig. 11: Nyx × both compressors × methods at eb 1e-2 ===");
    let built = ctx.scenario(Application::Nyx);
    let mut all = Vec::new();
    for kind in CompressorKind::PAPER {
        let rows = experiment::run_viz_quality(
            built,
            kind,
            &[1e-2],
            &[IsoMethod::Resampling, IsoMethod::DualCellRedundant],
        )
        .expect("viz-quality runs");
        all.extend(rows);
    }
    println!("{}", report::format_viz_quality(&all));
    // Original-data render for reference.
    let field = built.spec.eval_field();
    let levels = built
        .hierarchy
        .field(field)
        .expect("eval field")
        .levels
        .clone();
    let built = &ctx.built[Application::Nyx.label()];
    ctx.save_mesh_render(
        built,
        &levels,
        IsoMethod::Resampling,
        "fig11_original_resampling",
    );
    ctx.record("fig11", &all);
}

fn rate_distortion(ctx: &mut Ctx, app: Application, figname: &str) {
    println!(
        "\n=== {}: rate-distortion on {} \"{}\" ===",
        figname,
        app.label(),
        app.eval_field()
    );
    let built = ctx.scenario(app);
    let pts = experiment::run_rate_distortion(built, &RD_EBS).expect("rate-distortion runs");
    println!("{}", report::format_rate_distortion(&pts));
    ctx.record(figname, &pts);
}

fn fig14(ctx: &mut Ctx) {
    println!("\n=== Fig. 14: 1D block-artifact smoothing by re-sampling ===");
    let (orig, blocky, resampled) = fig14_series(16, 1.4);
    let fmt = |s: &[f64]| {
        s.iter()
            .map(|v| format!("{v:>5.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("  original (cell):   {}", fmt(&orig));
    println!("  decompressed:      {}", fmt(&blocky));
    println!("  re-sampled (node): {}", fmt(&resampled));
    println!(
        "  step roughness: original {:.2}, decompressed {:.2}, re-sampled {:.2}",
        step_roughness(&orig),
        step_roughness(&blocky),
        step_roughness(&resampled)
    );
    let mut series = Json::obj();
    series
        .set("original", orig.to_json())
        .set("decompressed", blocky.to_json())
        .set("resampled", resampled.to_json());
    ctx.record("fig14", series);
}

fn ablation(ctx: &mut Ctx) {
    println!("\n=== Ablation: redundant coarse data during compression (§2.2) ===");
    let mut rows = Vec::new();
    for app in Application::ALL {
        let built = ctx.scenario(app);
        let field = built.spec.eval_field();
        for kind in CompressorKind::PAPER {
            let comp = kind.instance();
            for (label, cfg) in [
                ("keep", AmrCodecConfig::default()),
                (
                    "skip",
                    AmrCodecConfig {
                        skip_redundant: true,
                        restore_redundant: false,
                    },
                ),
            ] {
                let c = compress_hierarchy_field(
                    &built.hierarchy,
                    field,
                    comp.as_ref(),
                    ErrorBound::Rel(1e-3),
                    &cfg,
                )
                .expect("field exists");
                rows.push(vec![
                    app.label().to_string(),
                    kind.label().to_string(),
                    label.to_string(),
                    format!(
                        "{:.1}",
                        (c.n_values * 8) as f64 / c.compressed_bytes() as f64
                    ),
                ]);
            }
        }
    }
    println!(
        "{}",
        report::ascii_table(&["App", "Compressor", "Redundant data", "CR (f64)"], &rows)
    );
    ctx.record("ablation_redundant", &rows);

    // zMesh-style cross-level 1D baseline (the related work the paper's
    // intro discusses) and the SZ-L/R predictor ablation.
    println!("--- related-work baseline + predictor ablation (rel eb 1e-3) ---");
    let mut rows = Vec::new();
    for app in Application::ALL {
        let built = ctx.scenario(app);
        let field = built.spec.eval_field();
        let n = built.hierarchy.total_cells();
        let z = amrviz_compress::compress_zmesh(&built.hierarchy, field, ErrorBound::Rel(1e-3))
            .expect("field exists");
        rows.push(vec![
            app.label().to_string(),
            "zMesh-1D".to_string(),
            format!("{:.1}", (n * 8) as f64 / z.len() as f64),
        ]);
        for (label, comp) in [
            ("SZ-L/R hybrid", amrviz_compress::SzLr::default()),
            ("SZ-L/R lorenzo-only", amrviz_compress::SzLr::lorenzo_only()),
            (
                "SZ-L/R regression-only",
                amrviz_compress::SzLr::regression_only(),
            ),
        ] {
            let c = compress_hierarchy_field(
                &built.hierarchy,
                field,
                &comp,
                ErrorBound::Rel(1e-3),
                &AmrCodecConfig::default(),
            )
            .expect("field exists");
            rows.push(vec![
                app.label().to_string(),
                label.to_string(),
                format!(
                    "{:.1}",
                    (c.n_values * 8) as f64 / c.compressed_bytes() as f64
                ),
            ]);
        }
    }
    println!(
        "{}",
        report::ascii_table(&["App", "Variant", "CR (f64)"], &rows)
    );
    ctx.record("ablation_predictors", &rows);
}

/// `--suite enumerated`: expand a recipe into concrete scenarios and run
/// the compression-quality matrix over every one of them. Each run row
/// (table and summary.jsonl) carries the scenario's canonical recipe
/// string, so any row reproduces with
/// `amrviz repro --suite "enumerated:<recipe>" --seed <seed>`.
fn enumerated(ctx: &mut Ctx, recipe_src: &str) {
    println!("\n=== Enumerated suite: recipe-expanded scenario matrix ===");
    let exp = match amrviz_recipe::expand(recipe_src, ctx.seed) {
        Ok(e) => e,
        Err(e) => panic!("recipe error: {e}"),
    };
    println!(
        "recipe expands to {} scenario(s), {} excluded",
        exp.specs.len(),
        exp.excluded.len()
    );
    for (recipe, reason) in &exp.excluded {
        println!("  excluded ({reason}): {recipe}");
    }
    let mut all = Vec::new();
    for spec in exp.specs {
        eprintln!("[repro] generating {}…", spec.label());
        let built = BuiltScenario::from_spec(spec);
        for kind in CompressorKind::PAPER {
            for eb in [1e-3, 1e-2] {
                all.push(experiment::run_compression(&built, kind, eb).expect("suite run"));
            }
        }
    }
    println!("{}", report::format_table2(&all));
    ctx.runs.extend(all.iter().cloned());
    ctx.record("enumerated", &all);
}

/// What [`run`] executes.
pub enum Target<'a> {
    /// One experiment by name (see the module docs), or `all`.
    Experiment(&'a str),
    /// A `--suite` value: `enumerated`, `enumerated:@FILE` or
    /// `enumerated:(scenario …)`.
    Suite(&'a str),
}

const EXPERIMENTS: [&str; 12] = [
    "table1", "table2", "fig1", "fig2", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
    "ablation", "all",
];

/// Runs `target` at `scale`/`seed`, writing renders, manifests,
/// `results.json` and `summary.jsonl` under `out`, prints the `SUMMARY`
/// line and returns its JSON. A failed experiment is recorded in the
/// summary's `experiments` list (`"status":"failed"`) rather than returned
/// as an error; `Err` is only for a target that cannot start.
pub fn run(target: Target, scale: Scale, seed: u64, out: &Path) -> Result<Json, String> {
    let (exp, suite) = match target {
        Target::Experiment(e) if EXPERIMENTS.contains(&e) => (e, None),
        Target::Experiment(e) => {
            return Err(format!(
                "unknown experiment `{e}`; known: {EXPERIMENTS:?} (or --suite enumerated)"
            ))
        }
        Target::Suite(v) => ("enumerated", Some(resolve_suite(v)?)),
    };
    std::fs::create_dir_all(out).ok();
    // Merge into any existing results.json so partial re-runs (e.g.
    // `amrviz repro fig9` after `amrviz repro all`) keep the other
    // experiments' records.
    let existing = std::fs::read_to_string(out.join("results.json"))
        .ok()
        .and_then(|s| Json::parse(&s).ok())
        .filter(|v| matches!(v, Json::Obj(_)))
        .unwrap_or_else(Json::obj);
    let mut ctx = Ctx {
        scale,
        seed,
        out: out.to_path_buf(),
        built: BTreeMap::new(),
        json: existing,
        runs: Vec::new(),
        stage_seconds: BTreeMap::new(),
        experiments: Vec::new(),
        decode_fabs: (0, 0, 0),
    };
    amrviz_obs::enable();
    // Trace ids are derived from the run seed, so the same seed reproduces
    // the same ids (and the same sampling verdicts) at any thread count.
    amrviz_obs::set_trace_seed(seed);
    let selected = |name: &str| suite.is_none() && (exp == name || exp == "all");
    // Each experiment starts from cleared metrics and reads only the spans
    // that started after its mark, so its manifest covers its own work
    // while the recorder keeps the whole run for the exporters. A
    // panicking experiment is recorded as `"status":"failed"` and the
    // batch continues — one broken figure must not cost the rest of an
    // `all` run.
    let instrumented = |ctx: &mut Ctx, name: &str, f: &dyn Fn(&mut Ctx)| {
        amrviz_obs::reset_metrics();
        let start_ns = amrviz_obs::epoch_elapsed_ns();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(ctx)));
        ctx.finish_experiment(name, start_ns);
        let mut rec = Json::obj();
        rec.set("name", name);
        match outcome {
            Ok(()) => {
                rec.set("status", "ok");
            }
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "<non-string panic>".into());
                eprintln!("[repro] experiment {name} FAILED: {msg} — continuing batch");
                rec.set("status", "failed").set("error", msg);
            }
        }
        ctx.experiments.push(rec);
    };
    if selected("table1") {
        instrumented(&mut ctx, "table1", &table1);
    }
    if selected("table2") {
        instrumented(&mut ctx, "table2", &table2);
    }
    if selected("fig1") {
        instrumented(&mut ctx, "fig1", &fig1);
    }
    if selected("fig2") {
        instrumented(&mut ctx, "fig2", &fig2);
    }
    if selected("fig9") {
        instrumented(&mut ctx, "fig9", &|c| {
            figs_9_10(c, CompressorKind::SzLr, "fig9")
        });
    }
    if selected("fig10") {
        instrumented(&mut ctx, "fig10", &|c| {
            figs_9_10(c, CompressorKind::SzInterp, "fig10")
        });
    }
    if selected("fig11") {
        instrumented(&mut ctx, "fig11", &fig11);
    }
    if selected("fig12") {
        instrumented(&mut ctx, "fig12", &|c| {
            rate_distortion(c, Application::Warpx, "fig12")
        });
    }
    if selected("fig13") {
        instrumented(&mut ctx, "fig13", &|c| {
            rate_distortion(c, Application::Nyx, "fig13")
        });
    }
    if selected("fig14") {
        instrumented(&mut ctx, "fig14", &fig14);
    }
    if selected("ablation") {
        instrumented(&mut ctx, "ablation", &ablation);
    }
    if let Some(recipe_src) = &suite {
        instrumented(&mut ctx, "enumerated", &|c| enumerated(c, recipe_src));
    }

    let json_path = out.join("results.json");
    if std::fs::write(&json_path, ctx.json.to_string_pretty()).is_ok() {
        println!("\nresults recorded in {}", json_path.display());
    }

    // Final machine-readable one-liner: what ran, how well it compressed,
    // and where the wall time went. Also appended to summary.jsonl so
    // successive invocations accumulate a log.
    let runs: Vec<Json> = ctx
        .runs
        .iter()
        .map(|r| {
            let mut o = Json::obj();
            o.set("scenario", r.scenario.as_str())
                .set("recipe", r.recipe.as_str())
                .set("compressor", r.compressor)
                .set("rel_eb", r.rel_error_bound)
                .set("compression_ratio", r.compression_ratio)
                .set("psnr_db", r.psnr_db)
                .set("ssim", r.ssim)
                .set("compress_seconds", r.compress_seconds)
                .set("decompress_seconds", r.decompress_seconds);
            if r.trace_id != 0 {
                o.set("trace", format!("{:016x}", r.trace_id));
            }
            o
        })
        .collect();
    let mut decode_fabs = Json::obj();
    decode_fabs
        .set("ok", ctx.decode_fabs.0)
        .set("degraded", ctx.decode_fabs.1)
        .set("failed", ctx.decode_fabs.2);
    let mut summary = Json::obj();
    summary
        .set("experiment", exp)
        .set("scale", format!("{:?}", ctx.scale).to_lowercase())
        .set("seed", ctx.seed)
        .set("git", crate::harness::git_describe())
        .set("threads", amrviz_par::threads() as u64)
        .set("experiments", Json::Arr(ctx.experiments.clone()))
        .set("decode_fabs", decode_fabs)
        .set("runs", Json::Arr(runs))
        .set("stage_seconds", ctx.stage_seconds.to_json());
    if amrviz_obs::journal::is_active() {
        // Teardown appends one `journal_stop` line after this summary;
        // counting it keeps `enqueued` equal to the file's line count.
        let meta = amrviz_obs::meta_snapshot();
        let mut j = Json::obj();
        j.set("enqueued", meta.journal_enqueued + 1)
            .set("dropped", meta.journal_dropped);
        summary.set("journal", j);
    }
    let line = summary.to_string_compact();
    println!("SUMMARY {line}");
    use std::io::Write;
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(ctx.out.join("summary.jsonl"))
    {
        let _ = writeln!(f, "{line}");
    }
    Ok(summary)
}
