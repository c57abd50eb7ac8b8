//! Optimizers.

use crate::tensor::Matrix;

/// The Adam optimizer (Kingma & Ba, 2015).
///
/// # Example
///
/// ```
/// use almost_ml::optim::Adam;
/// use almost_ml::tensor::Matrix;
///
/// let mut param = Matrix::from_rows(&[&[1.0]]);
/// let grad = Matrix::from_rows(&[&[2.0]]);
/// let mut adam = Adam::new(0.1);
/// adam.step(&mut [&mut param], &[&grad]);
/// assert!(param.get(0, 0) < 1.0);
/// ```
#[derive(Clone, Debug)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    /// Adam with the standard betas (0.9, 0.999).
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// The learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.lr
    }

    /// Applies one update step.
    ///
    /// # Panics
    ///
    /// Panics if `params` and `grads` have different lengths or shapes, or
    /// if the parameter set changes between calls.
    pub fn step(&mut self, params: &mut [&mut Matrix], grads: &[&Matrix]) {
        assert_eq!(params.len(), grads.len(), "param/grad count mismatch");
        if self.m.is_empty() {
            self.m = params
                .iter()
                .map(|p| Matrix::zeros(p.rows(), p.cols()))
                .collect();
            self.v = self.m.clone();
        }
        assert_eq!(self.m.len(), params.len(), "parameter set changed");
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for ((p, g), (m, v)) in params
            .iter_mut()
            .zip(grads)
            .zip(self.m.iter_mut().zip(self.v.iter_mut()))
        {
            assert_eq!((p.rows(), p.cols()), (g.rows(), g.cols()), "shape mismatch");
            for i in 0..p.data().len() {
                let gi = g.data()[i];
                m.data_mut()[i] = self.beta1 * m.data()[i] + (1.0 - self.beta1) * gi;
                v.data_mut()[i] = self.beta2 * v.data()[i] + (1.0 - self.beta2) * gi * gi;
                let mh = m.data()[i] / b1t;
                let vh = v.data()[i] / b2t;
                p.data_mut()[i] -= self.lr * mh / (vh.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimises_a_quadratic() {
        // f(x) = (x - 3)^2, grad = 2(x - 3).
        let mut x = Matrix::from_rows(&[&[0.0]]);
        let mut adam = Adam::new(0.1);
        for _ in 0..500 {
            let g = Matrix::from_rows(&[&[2.0 * (x.get(0, 0) - 3.0)]]);
            adam.step(&mut [&mut x], &[&g]);
        }
        assert!((x.get(0, 0) - 3.0).abs() < 0.05, "x = {}", x.get(0, 0));
    }

    #[test]
    fn handles_multiple_parameters() {
        let mut a = Matrix::from_rows(&[&[5.0]]);
        let mut b = Matrix::from_rows(&[&[-5.0, 2.0]]);
        let mut adam = Adam::new(0.2);
        for _ in 0..400 {
            let ga = Matrix::from_rows(&[&[2.0 * a.get(0, 0)]]);
            let gb = b.scale(2.0);
            adam.step(&mut [&mut a, &mut b], &[&ga, &gb]);
        }
        assert!(a.norm() < 0.1);
        assert!(b.norm() < 0.1);
    }

    #[test]
    #[should_panic(expected = "param/grad count mismatch")]
    fn mismatched_counts_panic() {
        let mut a = Matrix::zeros(1, 1);
        let mut adam = Adam::new(0.1);
        adam.step(&mut [&mut a], &[]);
    }
}
