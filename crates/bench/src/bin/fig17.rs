//! Figure 17: Hermes gains across inference model architectures
//! (Phi-1.5, Gemma2-9B, OPT-30B) and hardware platforms (A6000 Ada, L4).

use hermes::metrics::{Row, Table};
use hermes::perfmodel::{GpuPlatform, InferenceModel, LlmModel};
use hermes::sim::{
    Deployment, DvfsMode, MultiNodeSim, PipelinePolicy, RetrievalScheme, ServingConfig,
};
use hermes_bench::emit;

const TOKENS: u64 = 100_000_000_000;

fn gains(inference: InferenceModel) -> (f64, f64, usize) {
    let gpus = inference.num_gpus();
    let deployment = Deployment::uniform(TOKENS, 10).with_inference(inference);
    let sim = MultiNodeSim::new(deployment);
    let serving = ServingConfig::paper_default();
    let base = sim.run(
        &serving,
        RetrievalScheme::Monolithic,
        PipelinePolicy::baseline(),
        DvfsMode::Off,
    );
    let hermes = sim.run(
        &serving,
        RetrievalScheme::Hermes {
            clusters_to_search: 3,
            sample_nprobe: 8,
        },
        PipelinePolicy::combined(),
        DvfsMode::Off,
    );
    (
        base.e2e_s / hermes.e2e_s,
        base.total_joules() / hermes.total_joules(),
        gpus,
    )
}

fn main() {
    // Model architecture sweep on A6000 Ada.
    let mut models = Table::new(
        "Figure 17 (left) — Hermes gains by inference model (A6000 Ada, 100B tokens)",
        &["model", "GPUs", "E2E speedup", "energy saving"],
    );
    let mut first = 0.0;
    let mut last = 0.0;
    for llm in [
        LlmModel::phi_1_5(),
        LlmModel::gemma2_9b(),
        LlmModel::opt_30b(),
    ] {
        let name = llm.name.clone();
        let (speed, energy, gpus) = gains(InferenceModel::new(llm, GpuPlatform::a6000_ada()));
        if first == 0.0 {
            first = speed;
        }
        last = speed;
        models.push(Row::new(
            name,
            vec![
                gpus.to_string(),
                format!("{speed:.2}x"),
                format!("{energy:.2}x"),
            ],
        ));
    }
    emit("fig17_models", &[&models]);

    // Hardware platform sweep with Gemma2-9B.
    let mut hw = Table::new(
        "Figure 17 (right) — Hermes gains by GPU platform (Gemma2-9B, 100B tokens)",
        &["platform", "GPUs", "E2E speedup", "energy saving"],
    );
    for gpu in [GpuPlatform::a6000_ada(), GpuPlatform::l4()] {
        let name = gpu.name.clone();
        let (speed, energy, gpus) = gains(InferenceModel::new(LlmModel::gemma2_9b(), gpu));
        hw.push(Row::new(
            name,
            vec![
                gpus.to_string(),
                format!("{speed:.2}x"),
                format!("{energy:.2}x"),
            ],
        ));
    }
    emit("fig17_hardware", &[&hw]);

    println!(
        "shape check: gains shrink as the model grows ({first:.2}x for Phi-1.5\n\
         down to {last:.2}x for OPT-30B; paper: 9.38x -> 3.92x) because big\n\
         models shift the bottleneck to the GPU. OPT-30B needs 2 GPUs, as\n\
         does Gemma2-9B on L4 — matching the paper's placements."
    );
}
