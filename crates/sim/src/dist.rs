//! Probability distributions used by the workload and energy models.
//!
//! Implemented directly against [`rand::Rng`] so the workspace needs no
//! extra distribution crate. Each sampler documents the algorithm it uses;
//! all are standard textbook methods chosen for determinism. Two of them sit
//! on the per-request hot path of interactive synthesis — [`Zipf`] (one
//! object draw per request) and [`LogNormal`] (one size draw per request) —
//! so both precompute everything that does not depend on the draw.

use rand::Rng;

/// Draw `u ∈ (0, 1)` — open at both ends so `ln(u)` is always finite.
#[inline]
fn open_unit<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen();
        if u > 0.0 && u < 1.0 {
            return u;
        }
    }
}

/// Standard normal via the Box–Muller transform (one value per call; the
/// second value is intentionally discarded to keep samplers stateless).
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1 = open_unit(rng);
    let u2 = open_unit(rng);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Normal with the given mean and standard deviation.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    debug_assert!(std_dev >= 0.0);
    mean + std_dev * standard_normal(rng)
}

/// Exponential with rate `lambda` (mean `1/lambda`), via inverse CDF.
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> f64 {
    assert!(lambda > 0.0, "exponential rate must be positive, got {lambda}");
    -open_unit(rng).ln() / lambda
}

/// Poisson with mean `lambda`.
///
/// Uses Knuth's product method for small means and a normal approximation
/// (with continuity correction, clamped at zero) for `lambda > 30`, where the
/// approximation error is far below the noise floor of any experiment here.
pub fn poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    assert!(lambda >= 0.0, "poisson mean must be non-negative, got {lambda}");
    if lambda == 0.0 {
        return 0;
    }
    if lambda > 30.0 {
        let x = normal(rng, lambda, lambda.sqrt());
        return (x + 0.5).max(0.0) as u64;
    }
    let l = (-lambda).exp();
    let mut k = 0u64;
    let mut p = 1.0;
    loop {
        p *= open_unit(rng);
        if p <= l {
            return k;
        }
        k += 1;
    }
}

/// Weibull with shape `k` and scale `lambda`, via inverse CDF.
/// `k ≈ 2` is the classic fit for wind-speed distributions.
pub fn weibull<R: Rng + ?Sized>(rng: &mut R, shape: f64, scale: f64) -> f64 {
    assert!(shape > 0.0 && scale > 0.0, "weibull parameters must be positive");
    scale * (-open_unit(rng).ln()).powf(1.0 / shape)
}

/// Lognormal parameterised by the mean and std-dev of the *underlying*
/// normal (`mu`, `sigma`). Classic model for I/O request sizes.
pub fn lognormal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    normal(rng, mu, sigma).exp()
}

/// Lognormal parameterised by its own mean and coefficient of variation —
/// friendlier for workload configs ("mean 256 KiB, cv 1.5").
pub fn lognormal_mean_cv<R: Rng + ?Sized>(rng: &mut R, mean: f64, cv: f64) -> f64 {
    LogNormal::from_mean_cv(mean, cv).sample(rng)
}

/// [`lognormal_mean_cv`] with its two logarithms taken once, for loops that
/// draw many sizes from one distribution. Every sample is bit-identical to
/// the free function's (same float operations, same RNG draws).
#[derive(Debug, Clone, Copy)]
pub struct LogNormal {
    mean: f64,
    /// `(mu, sigma)` of the underlying normal; `None` when `cv == 0`, where
    /// the distribution is the constant `mean` and draws nothing.
    shape: Option<(f64, f64)>,
}

impl LogNormal {
    /// Lognormal with the given mean (`> 0`) and coefficient of variation
    /// (`>= 0`).
    pub fn from_mean_cv(mean: f64, cv: f64) -> Self {
        assert!(mean > 0.0 && cv >= 0.0);
        if cv == 0.0 {
            return LogNormal { mean, shape: None };
        }
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        LogNormal { mean, shape: Some((mu, sigma2.sqrt())) }
    }

    /// Draw one value.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match self.shape {
            Some((mu, sigma)) => lognormal(rng, mu, sigma),
            None => self.mean,
        }
    }
}

/// Inverse CDF (quantile function) of the standard normal distribution.
///
/// Acklam's rational approximation (relative error < 1.15e-9 over the open
/// unit interval) — accurate far beyond what confidence-band arithmetic
/// needs, with no dependency on `erf`. `p` must lie strictly inside (0, 1);
/// the closed endpoints would be ±∞.
#[allow(clippy::excessive_precision)] // Acklam's published coefficients, verbatim
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "normal quantile needs p in (0,1), got {p}");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383577518672690e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Zipf sampler over ranks `0..n` with exponent `s` (popularity skew).
///
/// Builds the CDF once (O(n)) and samples by inverse CDF through a guide
/// table (Chen–Asau indexed search): the unit interval is cut into `n`
/// equal buckets, `guide[j]` holds the first rank whose CDF entry falls in
/// bucket `j` or later, and a draw jumps there and scans forward — O(1)
/// expected, about two CDF probes per draw. The rank returned is exactly
/// the smallest `i` with `cdf[i] >= u`; wherever the CDF is strictly
/// increasing (every `s` and `n` the presets use) that is the rank a
/// binary search of the CDF finds. Object-popularity skew in storage
/// traces is classically Zipfian with `s ≈ 0.8–1.2`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    guide: Vec<u32>,
}

impl Zipf {
    /// Construct for `n` ranks with exponent `s ≥ 0`. `s = 0` is uniform.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf needs at least one rank");
        assert!(s >= 0.0 && s.is_finite(), "zipf exponent must be finite and >= 0");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // Guard against FP round-off leaving the last CDF entry below 1.
        *cdf.last_mut().expect("n > 0") = 1.0;
        assert!(n <= u32::MAX as usize, "zipf supports at most 2^32 - 1 ranks");
        // guide[j] = first rank whose CDF entry maps to bucket >= j, with
        // the mapping `sample` uses on `u`. The mapping is monotone in its
        // argument, so every rank below guide[bucket(u)] has `cdf < u` even
        // where `u·n` rounds up across a bucket edge. `bucket(1.0)` is the
        // last bucket, so the table is full and the scan stops inside it.
        let mut guide = Vec::with_capacity(n);
        for (i, &c) in cdf.iter().enumerate() {
            // Rank i is the first to reach buckets guide.len()..=bucket(c).
            let b = Self::bucket(c, n);
            if b >= guide.len() {
                guide.resize(b + 1, i as u32);
            }
        }
        Zipf { cdf, guide }
    }

    /// Guide-table bucket of a probability `x ∈ [0, 1]` over `n` buckets.
    #[inline]
    fn bucket(x: f64, n: usize) -> usize {
        ((x * n as f64) as usize).min(n - 1)
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the support is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Sample a rank in `0..n` (0 = most popular).
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.rank_of(u)
    }

    /// The smallest rank `i` with `cdf[i] >= u`, for `u ∈ [0, 1)`.
    #[inline]
    fn rank_of(&self, u: f64) -> usize {
        let mut i = self.guide[Self::bucket(u, self.cdf.len())] as usize;
        // Terminates: the last CDF entry is exactly 1.0 > u.
        while self.cdf[i] < u {
            i += 1;
        }
        i
    }

    /// Probability mass of rank `k`.
    pub fn pmf(&self, k: usize) -> f64 {
        if k >= self.cdf.len() {
            return 0.0;
        }
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }
}

/// First-order autoregressive process `x' = phi·x + (1-phi)·mean + noise`,
/// the standard minimal model for temporally-correlated weather residuals
/// (cloud cover, wind-speed deviations).
#[derive(Debug, Clone)]
pub struct Ar1 {
    phi: f64,
    mean: f64,
    noise_std: f64,
    state: f64,
}

impl Ar1 {
    /// New process with persistence `phi ∈ [0,1)`, long-run `mean`, and
    /// innovation std-dev `noise_std`; starts at the mean.
    pub fn new(phi: f64, mean: f64, noise_std: f64) -> Self {
        assert!((0.0..1.0).contains(&phi), "AR(1) phi must be in [0,1), got {phi}");
        assert!(noise_std >= 0.0);
        Ar1 { phi, mean, noise_std, state: mean }
    }

    /// Override the current state (e.g. to start a trace mid-storm).
    pub fn set_state(&mut self, x: f64) {
        self.state = x;
    }

    /// Current state without advancing.
    pub fn state(&self) -> f64 {
        self.state
    }

    /// Advance one step and return the new state.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        self.state = self.phi * self.state
            + (1.0 - self.phi) * self.mean
            + self.noise_std * standard_normal(rng);
        self.state
    }

    /// Advance one step and return the state clamped into `[lo, hi]`
    /// (clamping also feeds back, keeping the process inside the band).
    pub fn step_clamped<R: Rng + ?Sized>(&mut self, rng: &mut R, lo: f64, hi: f64) -> f64 {
        let x = self.step(rng).clamp(lo, hi);
        self.state = x;
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(0x5EED)
    }

    const N: usize = 40_000;

    #[test]
    fn normal_quantile_matches_reference_points() {
        // Classic z-table values; Acklam's approximation is good to ~1e-9.
        for (p, z) in [
            (0.5, 0.0),
            (0.8413447460685429, 1.0),
            (0.975, 1.959963984540054),
            (0.99, 2.3263478740408408),
            (0.001, -3.090232306167813),
        ] {
            assert!((normal_quantile(p) - z).abs() < 1e-7, "p={p}: {}", normal_quantile(p));
        }
    }

    #[test]
    fn normal_quantile_is_monotone_and_antisymmetric() {
        let mut prev = f64::NEG_INFINITY;
        for i in 1..1000 {
            let p = i as f64 / 1000.0;
            let z = normal_quantile(p);
            assert!(z > prev, "monotone at p={p}");
            assert!((z + normal_quantile(1.0 - p)).abs() < 1e-8, "antisymmetric at p={p}");
            prev = z;
        }
    }

    #[test]
    #[should_panic(expected = "normal quantile needs p in")]
    fn normal_quantile_rejects_endpoints() {
        let _ = normal_quantile(1.0);
    }

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let xs: Vec<f64> = (0..N).map(|_| normal(&mut r, 3.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / N as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / N as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut r = rng();
        let mean = (0..N).map(|_| exponential(&mut r, 0.5)).sum::<f64>() / N as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn poisson_small_and_large_means() {
        let mut r = rng();
        let m1 = (0..N).map(|_| poisson(&mut r, 3.0) as f64).sum::<f64>() / N as f64;
        assert!((m1 - 3.0).abs() < 0.1, "small-mean {m1}");
        let m2 = (0..N).map(|_| poisson(&mut r, 100.0) as f64).sum::<f64>() / N as f64;
        assert!((m2 - 100.0).abs() < 0.5, "large-mean {m2}");
        assert_eq!(poisson(&mut r, 0.0), 0);
    }

    #[test]
    fn weibull_mean_shape2() {
        // Mean of Weibull(k=2, λ) is λ·Γ(1.5) = λ·√π/2.
        let mut r = rng();
        let scale = 8.0;
        let mean = (0..N).map(|_| weibull(&mut r, 2.0, scale)).sum::<f64>() / N as f64;
        let expect = scale * (std::f64::consts::PI.sqrt() / 2.0);
        assert!((mean - expect).abs() / expect < 0.02, "mean {mean} expect {expect}");
    }

    #[test]
    fn lognormal_mean_cv_hits_target_mean() {
        let mut r = rng();
        let mean = (0..N).map(|_| lognormal_mean_cv(&mut r, 256.0, 1.0)).sum::<f64>() / N as f64;
        assert!((mean - 256.0).abs() / 256.0 < 0.05, "mean {mean}");
        assert_eq!(lognormal_mean_cv(&mut r, 10.0, 0.0), 10.0);
    }

    #[test]
    fn zipf_rank0_most_popular() {
        let z = Zipf::new(100, 1.0);
        let mut r = rng();
        let mut counts = vec![0usize; 100];
        for _ in 0..N {
            counts[z.sample(&mut r)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[90]);
        // pmf sums to 1
        let total: f64 = (0..100).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(z.pmf(100), 0.0);
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let z = Zipf::new(10, 0.0);
        for k in 0..10 {
            assert!((z.pmf(k) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_samples_cover_full_support() {
        let z = Zipf::new(5, 0.9);
        let mut r = rng();
        let mut seen = [false; 5];
        for _ in 0..5_000 {
            seen[z.sample(&mut r)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all ranks should appear: {seen:?}");
    }

    /// The binary-search inverse CDF the guide table replaced: the
    /// reference `Zipf::rank_of` must reproduce exactly.
    fn binary_search_rank(cdf: &[f64], u: f64) -> usize {
        match cdf.binary_search_by(|p| p.partial_cmp(&u).expect("cdf is finite")) {
            Ok(i) => i,
            Err(i) => i.min(cdf.len() - 1),
        }
    }

    #[test]
    fn zipf_guide_table_matches_binary_search() {
        let below_one = 1.0 - f64::EPSILON / 2.0; // 1 - 2^-53, the largest draw
        for n in [1usize, 2, 5, 1_000, 100_000] {
            for s in [0.0, 0.9, 1.2] {
                let z = Zipf::new(n, s);
                assert!(z.cdf.windows(2).all(|w| w[0] < w[1]), "n={n} s={s}: cdf not strict");
                let mut us = vec![0.0, below_one];
                // Every CDF entry and its neighbours: the ranks' own edges.
                for &c in &z.cdf {
                    us.extend([c.next_down(), c, c.next_up()]);
                }
                // Every guide bucket edge j/n and its neighbours, where
                // `u·n` can round across the edge.
                for j in 0..n {
                    let edge = j as f64 / n as f64;
                    us.extend([edge.next_down(), edge, edge.next_up()]);
                }
                let mut r = rng();
                us.extend((0..10_000).map(|_| r.gen::<f64>()));
                for u in us {
                    if !(0.0..1.0).contains(&u) {
                        continue; // outside the sampler's domain [0, 1)
                    }
                    assert_eq!(z.rank_of(u), binary_search_rank(&z.cdf, u), "n={n} s={s} u={u:e}");
                }
            }
        }
    }

    #[test]
    fn zipf_sample_draws_one_uniform_per_rank() {
        // `sample` consumes exactly one `gen::<f64>()` and inverts it, so
        // a replayed RNG gives the binary-search rank of the same draw.
        let z = Zipf::new(1_000, 1.1);
        let (mut a, mut b) = (rng(), rng());
        for _ in 0..1_000 {
            let k = z.sample(&mut a);
            assert_eq!(k, binary_search_rank(&z.cdf, b.gen::<f64>()));
        }
    }

    #[test]
    fn lognormal_sampler_is_bit_identical_to_inline_formula() {
        // The per-call formula `LogNormal` hoisted: both logarithms taken
        // on every draw.
        fn per_call(rng: &mut SmallRng, mean: f64, cv: f64) -> f64 {
            if cv == 0.0 {
                return mean;
            }
            let sigma2 = (1.0 + cv * cv).ln();
            let mu = mean.ln() - sigma2 / 2.0;
            lognormal(rng, mu, sigma2.sqrt())
        }
        for (mean, cv) in [(256.0 * 1024.0, 1.5), (10.0, 0.0), (1.0, 1e-12), (4096.0, 0.3)] {
            let d = LogNormal::from_mean_cv(mean, cv);
            let (mut a, mut b, mut c) = (rng(), rng(), rng());
            for _ in 0..1_000 {
                let want = per_call(&mut a, mean, cv).to_bits();
                assert_eq!(d.sample(&mut b).to_bits(), want, "mean={mean} cv={cv}");
                assert_eq!(lognormal_mean_cv(&mut c, mean, cv).to_bits(), want);
            }
        }
    }

    #[test]
    fn ar1_reverts_to_mean() {
        let mut p = Ar1::new(0.9, 5.0, 0.0);
        p.set_state(100.0);
        let mut r = rng();
        for _ in 0..200 {
            p.step(&mut r);
        }
        assert!((p.state() - 5.0).abs() < 0.01, "state {}", p.state());
    }

    #[test]
    fn ar1_clamped_stays_in_band() {
        let mut p = Ar1::new(0.5, 0.5, 0.5);
        let mut r = rng();
        for _ in 0..1_000 {
            let x = p.step_clamped(&mut r, 0.0, 1.0);
            assert!((0.0..=1.0).contains(&x));
        }
    }

    #[test]
    #[should_panic(expected = "zipf needs at least one rank")]
    fn zipf_empty_panics() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "exponential rate must be positive")]
    fn exponential_bad_rate_panics() {
        let mut r = rng();
        let _ = exponential(&mut r, 0.0);
    }
}
