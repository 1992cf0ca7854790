//! Zipfian key-popularity distribution, YCSB style (Gray et al.,
//! "Quickly Generating Billion-Record Synthetic Databases", SIGMOD 1994).

use rand::rngs::SmallRng;
use rand::RngExt;

/// A zipfian sampler over ranks `0..n` where rank `i` has probability
/// proportional to `1/(i+1)^θ`. `θ = 0` degenerates to uniform.
///
/// Constructing a sampler computes `ζ(n, θ)` in `O(n)`; samplers are
/// immutable and shared across all clients of a run (`Arc<Zipf>`).
#[derive(Clone, Debug)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    /// `0.5^θ`, rank 1's unnormalized weight (computed once: `sample`
    /// needs it on every skewed draw).
    half_pow_theta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "zipf needs a non-empty domain");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0, 1)");
        if theta == 0.0 {
            return Zipf {
                n,
                theta,
                alpha: 0.0,
                zetan: 0.0,
                eta: 0.0,
                half_pow_theta: 1.0,
            };
        }
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2.min(n), theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipf {
            n,
            theta,
            alpha,
            zetan,
            eta,
            half_pow_theta: 0.5f64.powf(theta),
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        let mut sum = 0.0;
        for i in 1..=n {
            sum += 1.0 / (i as f64).powf(theta);
        }
        sum
    }

    pub fn n(&self) -> u64 {
        self.n
    }

    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Draws a rank in `0..n`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut SmallRng) -> u64 {
        if self.theta == 0.0 {
            return rng.random_range(0..self.n);
        }
        let u: f64 = rng.random();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + self.half_pow_theta {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }

    /// The probability of rank `i` under the exact zipfian law (test and
    /// analysis helper; the sampler itself approximates this law).
    pub fn prob(&self, i: u64) -> f64 {
        if self.theta == 0.0 {
            1.0 / self.n as f64
        } else {
            1.0 / ((i + 1) as f64).powf(self.theta) / self.zetan
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn freq(z: &Zipf, samples: usize, seed: u64) -> Vec<u64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut counts = vec![0u64; z.n() as usize];
        for _ in 0..samples {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        counts
    }

    #[test]
    fn samples_stay_in_range() {
        let z = Zipf::new(100, 0.99);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 100);
        }
    }

    #[test]
    fn uniform_when_theta_zero() {
        let z = Zipf::new(10, 0.0);
        let counts = freq(&z, 100_000, 2);
        for c in counts {
            let p = c as f64 / 100_000.0;
            assert!((p - 0.1).abs() < 0.01, "uniform bucket off: {p}");
        }
    }

    #[test]
    fn skew_orders_popularity() {
        let z = Zipf::new(100, 0.99);
        let counts = freq(&z, 200_000, 3);
        assert!(counts[0] > counts[9]);
        assert!(counts[9] > counts[50]);
        // Hot key takes a large share under z=0.99.
        assert!(counts[0] as f64 / 200_000.0 > 0.1);
    }

    #[test]
    fn empirical_matches_exact_law() {
        let z = Zipf::new(50, 0.8);
        let counts = freq(&z, 400_000, 4);
        for i in [0u64, 1, 5, 20] {
            let emp = counts[i as usize] as f64 / 400_000.0;
            let exact = z.prob(i);
            assert!(
                (emp - exact).abs() / exact < 0.15,
                "rank {i}: empirical {emp} vs exact {exact}"
            );
        }
    }

    #[test]
    fn probabilities_sum_to_one() {
        for theta in [0.0, 0.8, 0.99] {
            let z = Zipf::new(200, theta);
            let total: f64 = (0..200).map(|i| z.prob(i)).sum();
            assert!((total - 1.0).abs() < 1e-9, "theta {theta}: sum {total}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let z = Zipf::new(1000, 0.99);
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut a), z.sample(&mut b));
        }
    }

    #[test]
    fn single_element_domain() {
        let z = Zipf::new(1, 0.99);
        let mut rng = SmallRng::seed_from_u64(5);
        assert_eq!(z.sample(&mut rng), 0);
    }

    #[test]
    fn the_exact_law_decreases_with_rank() {
        let z = Zipf::new(50, 0.8);
        assert_eq!(z.theta(), 0.8);
        for i in 1..50 {
            assert!(z.prob(i) < z.prob(i - 1), "rank {i}");
        }
        // Rank 0 holds 1/ζ(n, θ) of the mass.
        assert!((z.prob(0) - 1.0 / Zipf::zeta(50, 0.8)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "theta must be in [0, 1)")]
    fn theta_one_is_rejected() {
        Zipf::new(10, 1.0);
    }

    #[test]
    #[should_panic(expected = "non-empty domain")]
    fn an_empty_domain_is_rejected() {
        Zipf::new(0, 0.5);
    }
}
