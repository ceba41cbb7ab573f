//! Federated data partitioners: IID and the paper's two non-IID schemes.

use crate::image::ImageDataset;
use fedmp_tensor::shuffled_indices;
use rand::rngs::StdRng;
use rand::Rng;

/// A federated split: one index list per worker.
pub type Partition = Vec<Vec<usize>>;

/// Uniform IID split: samples are shuffled and dealt round-robin, so
/// worker sizes differ by at most one.
pub fn iid_partition(dataset: &ImageDataset, workers: usize, rng: &mut StdRng) -> Partition {
    assert!(workers > 0, "need at least one worker");
    let order = shuffled_indices(dataset.len(), rng);
    let mut parts = vec![Vec::with_capacity(dataset.len() / workers + 1); workers];
    for (i, idx) in order.into_iter().enumerate() {
        parts[i % workers].push(idx);
    }
    parts
}

/// The paper's MNIST/CIFAR-10 non-IID scheme (§V-F): `y`% of each
/// worker's data belongs to one dominant label, the rest is uniform over
/// the other labels. Worker `n`'s dominant label is `n mod classes`.
///
/// `y` is a percentage in `[0, 100]`; `y = 0` reduces to IID.
pub fn label_skew_partition(
    dataset: &ImageDataset,
    workers: usize,
    y: u32,
    rng: &mut StdRng,
) -> Partition {
    assert!(workers > 0, "need at least one worker");
    assert!(y <= 100, "non-IID level y must be a percentage");
    if y == 0 {
        return iid_partition(dataset, workers, rng);
    }
    let classes = dataset.num_classes;
    let per_worker = dataset.len() / workers;
    let dominant_quota = (per_worker as f64 * y as f64 / 100.0).round() as usize;

    // Pools of shuffled per-class indices consumed from the back.
    let mut pools: Vec<Vec<usize>> = (0..classes)
        .map(|c| {
            let mut v = dataset.indices_of_class(c);
            for i in (1..v.len()).rev() {
                let j = rng.gen_range(0..=i);
                v.swap(i, j);
            }
            v
        })
        .collect();

    let mut parts: Partition = vec![Vec::with_capacity(per_worker); workers];
    // Dominant quotas first so every worker gets its skewed share.
    for (n, part) in parts.iter_mut().enumerate() {
        let dom = n % classes;
        for _ in 0..dominant_quota {
            if let Some(idx) = pools[dom].pop() {
                part.push(idx);
            }
        }
    }
    // Fill the rest uniformly from whatever remains, skipping each
    // worker's dominant class where possible.
    let mut leftovers: Vec<usize> = pools.into_iter().flatten().collect();
    for i in (1..leftovers.len()).rev() {
        let j = rng.gen_range(0..=i);
        leftovers.swap(i, j);
    }
    let mut cursor = 0usize;
    for part in parts.iter_mut() {
        while part.len() < per_worker && cursor < leftovers.len() {
            part.push(leftovers[cursor]);
            cursor += 1;
        }
    }
    parts
}

/// The paper's EMNIST/Tiny-ImageNet non-IID scheme (§V-F): each worker
/// **lacks `y` classes** of samples; its data is uniform over the
/// remaining classes. The missing set rotates across workers.
pub fn missing_classes_partition(
    dataset: &ImageDataset,
    workers: usize,
    y: usize,
    rng: &mut StdRng,
) -> Partition {
    assert!(workers > 0, "need at least one worker");
    let classes = dataset.num_classes;
    assert!(y < classes, "cannot remove all {classes} classes");
    if y == 0 {
        return iid_partition(dataset, workers, rng);
    }

    // Rotating missing-class windows: worker n misses classes
    // [n*y, n*y + y) mod classes.
    let missing: Vec<Vec<bool>> = (0..workers)
        .map(|n| {
            let mut m = vec![false; classes];
            for k in 0..y {
                m[(n * y + k) % classes] = true;
            }
            m
        })
        .collect();

    // Deal each class's samples round-robin over the workers that keep it.
    let mut parts: Partition = vec![Vec::new(); workers];
    #[expect(
        clippy::needless_range_loop,
        reason = "`c` is a class id used against every worker's mask, not an index into one \
                  iterable"
    )]
    for c in 0..classes {
        let keepers: Vec<usize> = (0..workers).filter(|&n| !missing[n][c]).collect();
        assert!(!keepers.is_empty(), "class {c} dropped by every worker");
        let mut idxs = dataset.indices_of_class(c);
        for i in (1..idxs.len()).rev() {
            let j = rng.gen_range(0..=i);
            idxs.swap(i, j);
        }
        for (i, idx) in idxs.into_iter().enumerate() {
            parts[keepers[i % keepers.len()]].push(idx);
        }
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::mnist_like;
    use fedmp_tensor::seeded_rng;

    fn dataset() -> ImageDataset {
        mnist_like(0.2, 11).generate().0
    }

    #[test]
    fn iid_covers_everything_once() {
        let d = dataset();
        let mut rng = seeded_rng(1);
        let parts = iid_partition(&d, 7, &mut rng);
        let mut all: Vec<usize> = parts.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..d.len()).collect::<Vec<_>>());
        let sizes: Vec<usize> = parts.iter().map(Vec::len).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn label_skew_concentrates_dominant_label() {
        let d = dataset();
        let mut rng = seeded_rng(2);
        // 10 workers over 10 classes: each class pool exactly covers one
        // worker's dominant quota.
        let parts = label_skew_partition(&d, 10, 80, &mut rng);
        for (n, part) in parts.iter().enumerate() {
            let dom = n % d.num_classes;
            let dom_count = part.iter().filter(|&&i| d.label(i) == dom).count();
            let frac = dom_count as f32 / part.len() as f32;
            assert!(frac > 0.6, "worker {n}: dominant fraction {frac}");
        }
    }

    #[test]
    fn label_skew_zero_is_iid() {
        let d = dataset();
        let mut rng = seeded_rng(3);
        let parts = label_skew_partition(&d, 4, 0, &mut rng);
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), d.len());
    }

    #[test]
    fn label_skew_no_duplicates() {
        let d = dataset();
        let mut rng = seeded_rng(4);
        let parts = label_skew_partition(&d, 6, 50, &mut rng);
        let mut all: Vec<usize> = parts.iter().flatten().copied().collect();
        let before = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), before, "duplicate sample assignment");
    }

    #[test]
    fn missing_classes_actually_missing() {
        let d = dataset();
        let mut rng = seeded_rng(5);
        let y = 3;
        let parts = missing_classes_partition(&d, 4, y, &mut rng);
        for (n, part) in parts.iter().enumerate() {
            let mut present = vec![false; d.num_classes];
            for &i in part {
                present[d.label(i)] = true;
            }
            let missing_count = present.iter().filter(|&&p| !p).count();
            assert!(missing_count >= y, "worker {n} misses only {missing_count} classes");
        }
        // Together the workers still cover every class.
        let mut covered = vec![false; d.num_classes];
        for part in &parts {
            for &i in part {
                covered[d.label(i)] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn partitions_are_seed_deterministic() {
        let d = dataset();
        let a = label_skew_partition(&d, 5, 30, &mut seeded_rng(9));
        let b = label_skew_partition(&d, 5, 30, &mut seeded_rng(9));
        assert_eq!(a, b);
    }
}
