//! Dataset utilities: splits and class statistics.

use crate::gin::Graph;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Splits indices into (train, validation) with the given train fraction —
/// the paper uses a 9:1 split.
///
/// # Panics
///
/// Panics if `train_fraction` is outside `(0, 1]`.
pub fn train_val_split(n: usize, train_fraction: f64, seed: u64) -> (Vec<usize>, Vec<usize>) {
    assert!(
        train_fraction > 0.0 && train_fraction <= 1.0,
        "train fraction must be in (0, 1]"
    );
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(&mut StdRng::seed_from_u64(seed));
    let cut = ((n as f64) * train_fraction).round() as usize;
    let cut = cut.min(n);
    let (train, val) = idx.split_at(cut);
    (train.to_vec(), val.to_vec())
}

/// Fraction of positive labels in a dataset.
pub fn positive_fraction(graphs: &[Graph]) -> f64 {
    if graphs.is_empty() {
        return 0.0;
    }
    graphs.iter().filter(|g| g.label).count() as f64 / graphs.len() as f64
}

/// Selects graphs by indices.
pub fn select(graphs: &[Graph], indices: &[usize]) -> Vec<Graph> {
    indices.iter().map(|&i| graphs[i].clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Matrix;

    #[test]
    fn split_covers_everything_once() {
        let (train, val) = train_val_split(100, 0.9, 1);
        assert_eq!(train.len(), 90);
        assert_eq!(val.len(), 10);
        let mut all: Vec<usize> = train.iter().chain(val.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn split_is_deterministic() {
        assert_eq!(train_val_split(50, 0.8, 7), train_val_split(50, 0.8, 7));
    }

    #[test]
    fn positive_fraction_counts() {
        let g = |label| Graph::from_edges(1, &[], Matrix::zeros(1, 2), label);
        let data = vec![g(true), g(false), g(true), g(true)];
        assert_eq!(positive_fraction(&data), 0.75);
        assert_eq!(positive_fraction(&[]), 0.0);
    }
}
