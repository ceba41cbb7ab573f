//! Experiment specifications: the paper's four CNN-family tasks, their
//! synthetic datasets, worker fleets and partitions, bundled so every
//! bench and example builds runs the same way.

use fedmp_data::{
    cifar_like, emnist_like, iid_partition, label_skew_partition, missing_classes_partition,
    mnist_like, tiny_imagenet_like, SynthSpec,
};
use fedmp_edgesim::{heterogeneity_scenario, DeviceProfile, HeterogeneityLevel, TimeModel};
use fedmp_fl::{FlConfig, ImageTask};
use fedmp_nn::{model_cost, zoo, Init, Sequential, ShapesOnly};
use fedmp_tensor::seeded_rng;
use serde::{Deserialize, Serialize};

/// The paper's four image tasks (§V-A "Models and datasets").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TaskKind {
    /// CNN on MNIST(-like).
    CnnMnist,
    /// AlexNet on CIFAR-10(-like).
    AlexnetCifar,
    /// VGG on EMNIST(-like).
    VggEmnist,
    /// ResNet on Tiny-ImageNet(-like).
    ResnetTiny,
}

impl TaskKind {
    /// Display name matching the paper's table rows.
    pub fn name(self) -> &'static str {
        match self {
            TaskKind::CnnMnist => "CNN/MNIST",
            TaskKind::AlexnetCifar => "AlexNet/CIFAR-10",
            TaskKind::VggEmnist => "VGG/EMNIST",
            TaskKind::ResnetTiny => "ResNet/Tiny-ImageNet",
        }
    }

    /// The synthetic stand-in dataset for this task.
    pub fn synth_spec(self, data_scale: f32, seed: u64) -> SynthSpec {
        match self {
            TaskKind::CnnMnist => mnist_like(data_scale, seed),
            TaskKind::AlexnetCifar => cifar_like(data_scale, seed),
            TaskKind::VggEmnist => emnist_like(data_scale, seed),
            TaskKind::ResnetTiny => tiny_imagenet_like(data_scale, seed),
        }
    }

    /// This task's zoo model at `width`, its weights drawn from `init`
    /// (a seeded `StdRng`, or [`ShapesOnly`] when only shapes are read).
    pub fn model(self, width: f32, init: &mut impl Init) -> Sequential {
        match self {
            TaskKind::CnnMnist => zoo::cnn_mnist(width, init),
            TaskKind::AlexnetCifar => zoo::alexnet_cifar(width, init),
            TaskKind::VggEmnist => zoo::vgg_emnist(width, init),
            TaskKind::ResnetTiny => zoo::resnet_tiny(width, init),
        }
    }

    /// Instantiates the (width-scaled) model with weights seeded by `seed`.
    pub fn build_model(self, width: f32, seed: u64) -> Sequential {
        self.model(width, &mut seeded_rng(seed))
    }

    /// Which non-IID partitioner §V-F prescribes for this dataset:
    /// label-skew for MNIST/CIFAR-10, missing-classes for
    /// EMNIST/Tiny-ImageNet.
    pub fn uses_label_skew(self) -> bool {
        matches!(self, TaskKind::CnnMnist | TaskKind::AlexnetCifar)
    }

    /// All four tasks in the paper's presentation order.
    pub fn all() -> [TaskKind; 4] {
        [TaskKind::CnnMnist, TaskKind::AlexnetCifar, TaskKind::VggEmnist, TaskKind::ResnetTiny]
    }
}

/// A full experiment description; `build()` materialises it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentSpec {
    /// Which model/dataset pair.
    pub task: TaskKind,
    /// Model width multiplier (1.0 = paper-shaped, smaller = faster).
    pub width: f32,
    /// Dataset size multiplier.
    pub data_scale: f32,
    /// Number of workers (the paper's default is 10).
    pub workers: usize,
    /// Cluster mix (§V-E; the default experiments use Medium = 5A+5B).
    pub level: HeterogeneityLevel,
    /// Non-IID level y (0 = IID): percent for label-skew tasks, number
    /// of missing classes otherwise (§V-F).
    pub non_iid: u32,
    /// Engine configuration.
    pub fl: FlConfig,
    /// Master seed for data, devices and model init.
    pub seed: u64,
}

impl ExperimentSpec {
    /// A laptop-scale configuration used by tests and quick examples.
    pub fn small(task: TaskKind) -> Self {
        let width = match task {
            TaskKind::CnnMnist => 0.25,
            TaskKind::AlexnetCifar => 0.08,
            TaskKind::VggEmnist => 0.12,
            TaskKind::ResnetTiny => 0.15,
        };
        let data_scale = match task {
            TaskKind::CnnMnist | TaskKind::AlexnetCifar => 0.1,
            TaskKind::VggEmnist => 0.2,
            TaskKind::ResnetTiny => 1.0,
        };
        ExperimentSpec {
            task,
            width,
            data_scale,
            workers: 4,
            level: HeterogeneityLevel::Medium,
            non_iid: 0,
            fl: FlConfig { rounds: 10, eval_every: 2, ..Default::default() },
            seed: 42,
        }
    }

    /// The benchmark-scale configuration: closer to the paper's setup
    /// (10 workers, Medium heterogeneity) at reduced width so the full
    /// suite completes in minutes.
    pub fn bench(task: TaskKind) -> Self {
        let mut spec = Self::small(task);
        spec.workers = 10;
        spec.fl.rounds = 24;
        spec.fl.eval_every = 2;
        spec
    }

    /// Width-compensation factors: how much cheaper the width-scaled
    /// model is than the paper-sized (width 1.0) architecture, so the
    /// simulator charges paper-scale time for laptop-scale training.
    /// Both cost reports come from [`ShapesOnly`] builds: a report reads
    /// only dims, so no weight is drawn.
    pub fn cost_scale(&self) -> fedmp_fl::CostScale {
        if (self.width - 1.0).abs() < 1e-6 {
            return fedmp_fl::CostScale::default();
        }
        let chw = {
            let spec = self.task.synth_spec(self.data_scale, self.seed);
            (spec.channels, spec.height, spec.width)
        };
        let cost = |width| model_cost(&self.task.model(width, &mut ShapesOnly), chw);
        fedmp_fl::CostScale::from_reports(&cost(1.0), &cost(self.width))
    }

    /// Materialises the dataset and its partition: all a worker needs.
    pub fn build_task(&self) -> ImageTask {
        let synth = self.task.synth_spec(self.data_scale, self.seed);
        let (train, test) = synth.generate();
        let mut rng = seeded_rng(self.seed ^ 0xDA7A);
        let partition = if self.non_iid == 0 {
            iid_partition(&train, self.workers, &mut rng)
        } else if self.task.uses_label_skew() {
            label_skew_partition(&train, self.workers, self.non_iid, &mut rng)
        } else {
            missing_classes_partition(&train, self.workers, self.non_iid as usize, &mut rng)
        };
        ImageTask::new(train, test, partition)
    }

    /// Materialises the dataset, partition, fleet and initial model.
    pub fn build(&self) -> BuiltExperiment {
        let task = self.build_task();
        let mut dev_rng = seeded_rng(self.seed ^ 0xDE71CE);
        let devices = heterogeneity_scenario(self.level, self.workers, &mut dev_rng);
        let model = self.task.build_model(self.width, self.seed ^ 0x0DE1);
        BuiltExperiment {
            task,
            devices,
            model,
            time: TimeModel::default(),
            cost_scale: self.cost_scale(),
        }
    }
}

/// A materialised experiment, ready to run.
#[derive(Debug, Clone)]
pub struct BuiltExperiment {
    /// The federated task.
    pub task: ImageTask,
    /// The simulated fleet.
    pub devices: Vec<DeviceProfile>,
    /// The initial global model.
    pub model: Sequential,
    /// Virtual-clock model.
    pub time: TimeModel,
    /// Width-compensation factors for the simulator.
    pub cost_scale: fedmp_fl::CostScale,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_spec_builds_consistently() {
        let spec = ExperimentSpec::small(TaskKind::CnnMnist);
        let built = spec.build();
        assert_eq!(built.task.workers(), 4);
        assert_eq!(built.devices.len(), 4);
        assert_eq!(built.task.input_chw, (1, 28, 28));
        // Deterministic: same spec → same first sample and same devices.
        let again = spec.build();
        assert_eq!(built.task.train.sample(0), again.task.train.sample(0));
        assert_eq!(built.devices, again.devices);
    }

    #[test]
    fn non_iid_selects_correct_partitioner() {
        let mut spec = ExperimentSpec::small(TaskKind::VggEmnist);
        spec.non_iid = 10; // 10 missing classes of 62
        let built = spec.build();
        // Some class must be absent on worker 0.
        let d = &built.task.train;
        let mut present = vec![false; d.num_classes];
        for &i in &built.task.partition[0] {
            present[d.label(i)] = true;
        }
        assert!(present.iter().any(|&p| !p), "missing-classes partition not applied");
    }

    #[test]
    fn bench_cost_scale_is_pinned() {
        // `f64::to_bits` of (flops, bytes) as seeded builds of both
        // models give them: ≈ ×13.6/×15.8 (CNN), ×142.0/×157.4
        // (AlexNet), ×65.5/×64.7 (VGG), ×34.1/×34.9 (ResNet).
        const PINNED: [(TaskKind, u64, u64); 4] = [
            (TaskKind::CnnMnist, 0x402b_418b_94ae_b25d, 0x402f_959c_528a_36bb),
            (TaskKind::AlexnetCifar, 0x4061_bf5b_a68d_5c01, 0x4063_adc5_fafb_d678),
            (TaskKind::VggEmnist, 0x4050_62dc_9a1a_d82a, 0x4050_2b08_7f70_5dbe),
            (TaskKind::ResnetTiny, 0x4041_0dc1_1595_334c, 0x4041_7902_d0bb_4b9f),
        ];
        for (task, flops, bytes) in PINNED {
            let scale = ExperimentSpec::bench(task).cost_scale();
            assert_eq!(
                (scale.flops.to_bits(), scale.bytes.to_bits()),
                (flops, bytes),
                "{}: {scale:?}",
                task.name()
            );
        }
    }

    #[test]
    fn all_tasks_build() {
        for task in TaskKind::all() {
            let built = ExperimentSpec::small(task).build();
            assert!(!built.task.train.is_empty(), "{}", task.name());
        }
    }
}
