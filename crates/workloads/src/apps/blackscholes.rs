//! Black-Scholes (BS-S / BS-L): European option pricing, 256 kernel calls
//! (CUDA SDK `BlackScholes`).
//!
//! * BS-S: 4M options (short-running).
//! * BS-L: 40M options (long-running, GPU-intensive, very short CPU
//!   phases; memory requirements below MM-L — §5.3.3).

use super::common::*;
use crate::calib::{scale_bytes, work_c2050, Scale};
use crate::report::WorkloadReport;
use crate::Workload;
use mtgpu_api::{CudaClient, CudaResult, KernelArg};
use mtgpu_gpusim::kernel::{library, KernelExec, RegisteredKernel};
use mtgpu_gpusim::KernelDesc;
use mtgpu_simtime::Clock;
use std::cell::RefCell;
use std::sync::{Arc, OnceLock};

const SHADOW: usize = 256;
const RISK_FREE: f32 = 0.02;
const VOLATILITY: f32 = 0.30;

/// The BS workload family.
pub struct BlackScholes {
    name: &'static str,
    /// Declared option count (paper scale).
    options: u64,
    /// Kernel calls (Table 2: 256).
    repeats: u64,
    /// Per-kernel GPU seconds on a C2050.
    kernel_secs: f64,
    scale: Scale,
}

impl BlackScholes {
    /// BS-S: 4M options, short-running (≈3.5 s).
    pub fn small() -> Self {
        BlackScholes {
            name: "BS-S",
            options: 4_000_000,
            repeats: 256,
            kernel_secs: 3.5 / 256.0,
            scale: Scale::PAPER,
        }
    }

    /// BS-L: long-running (≈40 s). The option count is calibrated so that
    /// four concurrent BS-L tenants fit a 3 GiB C2050 alongside the vGPU
    /// context reservations — Figure 8 of the paper reports *zero* swap
    /// operations at the 100% BS-L mix, which pins BS-L's footprint below
    /// a quarter of the device ("memory requirements of BS-L are below
    /// those of MM-L", §5.3.3).
    pub fn large() -> Self {
        BlackScholes {
            name: "BS-L",
            options: 32_000_000,
            repeats: 256,
            kernel_secs: 40.0 / 256.0,
            scale: Scale::PAPER,
        }
    }

    /// Scales durations and footprints (tests).
    pub fn scaled(mut self, scale: Scale) -> Self {
        self.scale = scale;
        self
    }
}

// The Abramowitz–Stegun coefficients are quoted verbatim from the SDK
// sample; keeping every digit beats matching f32 representable precision.
#[allow(clippy::excessive_precision)]
const CND_K: f32 = 0.231_641_9;
#[allow(clippy::excessive_precision)]
const A: [f32; 5] = [0.319_381_53, -0.356_563_782, 1.781_477_937, -1.821_255_978, 1.330_274_429];

/// `e^r` on `|r| <= ln 2 / 2` as `1 + r + EXP_POLY[0]·r² + … +
/// EXP_POLY[5]·r⁷`, that is `1 + r·q(r)` with `q` the degree-6 polynomial
/// interpolating `(e^r - 1) / r` at the seven Chebyshev nodes of the
/// interval. Its largest relative error there is 1.1·10⁻¹⁰; the Taylor
/// polynomial's is 7·10⁻⁹.
const EXP_POLY: [f64; 6] = [
    0.500_000_004_711_775_7,
    0.166_666_667_189_975_08,
    0.041_666_352_896_775_16,
    0.008_333_298_483_754_886,
    0.001_394_110_843_397_267_4,
    0.000_198_992_739_586_493_6,
];

/// `e^x`, the pricer's own: evaluated in f64 and rounded to f32 once, so
/// within an ulp of libm's `expf`, and the same bits on every platform and
/// in every build of the passes. Straight-line code, no call, no branch:
/// a pass over a slice of these vectorises.
#[inline(always)]
fn exp(x: f32) -> f32 {
    // 1.5·2⁵²: adding it rounds a value of magnitude below 2⁵¹ to an
    // integer, held in the low bits of the sum.
    const SHIFT: f64 = 6_755_399_441_055_744.0;
    // e^-104 rounds to 0 in f32 and e^89 overflows it; clamped, `k` stays
    // well inside f64's exponent range. The clamp is two selects: it maps
    // ±inf to its bounds and keeps NaN, which the arithmetic carries
    // through.
    let x = (x as f64).clamp(-104.0, 89.0);
    // x = k·ln 2 + r with k = round(x / ln 2).
    let shifted = x * std::f64::consts::LOG2_E + SHIFT;
    let k = shifted - SHIFT;
    let r = x - k * std::f64::consts::LN_2;
    let p = EXP_POLY;
    let poly =
        1.0 + r * (1.0 + r * (p[0] + r * (p[1] + r * (p[2] + r * (p[3] + r * (p[4] + r * p[5]))))));
    // 2^k, built in the exponent field: the sum's low bits are k.
    let scale = f64::from_bits(shifted.to_bits().wrapping_add(1023) << 52);
    (poly * scale) as f32
}

/// `ln x`, the pricer's own, under [`exp`]'s contract: f64 inside, one
/// rounding to f32. `x = 2^k · m` with `m` in `[√½, √2)`, and
/// `ln m = 2·atanh(s)` with `s = (m - 1) / (m + 1)`, `|s| < 0.172`, summed
/// to `s¹¹` (the first term left out is below 5·10⁻¹¹ of the sum). f32
/// denormals are normal in f64; zero, negatives, +inf and NaN are selects.
#[inline(always)]
fn ln(x: f32) -> f32 {
    const ONE: u64 = 1f64.to_bits();
    const SQRT_HALF: u64 = std::f64::consts::FRAC_1_SQRT_2.to_bits();
    const MANTISSA: u64 = (1 << 52) - 1;
    // 2⁵²: an f64 whose low mantissa bits are an integer below 2¹² reads
    // as 2⁵² plus that integer.
    const TWO_52: f64 = 4_503_599_627_370_496.0;
    let x = x as f64;
    // Offset so that the exponent field turns over at √½ instead of 1.
    let bits = x.to_bits().wrapping_add(ONE - SQRT_HALF);
    let k = f64::from_bits(TWO_52.to_bits() | (bits >> 52)) - (TWO_52 + 1023.0);
    let m = f64::from_bits((bits & MANTISSA) + SQRT_HALF);
    let s = (m - 1.0) / (m + 1.0);
    let z = s * s;
    let series = 2.0
        * s
        * (1.0 + z * (1.0 / 3.0 + z * (1.0 / 5.0 + z * (1.0 / 7.0 + z * (1.0 / 9.0 + z / 11.0)))));
    let v = k * std::f64::consts::LN_2 + series;
    let v = if x == f64::INFINITY { x } else { v };
    let v = if x == 0.0 { f64::NEG_INFINITY } else { v };
    // Negatives and NaN.
    let v = if x >= 0.0 { v } else { f64::NAN };
    v as f32
}

/// The Black-Scholes call/put prices via the cumulative normal
/// approximation used by the CUDA SDK sample.
fn cnd(d: f32) -> f32 {
    let k = 1.0 / (1.0 + CND_K * d.abs());
    let poly = k * (A[0] + k * (A[1] + k * (A[2] + k * (A[3] + k * A[4]))));
    let w = 1.0 - exp(-0.5 * d * d) * poly / (2.0 * std::f32::consts::PI).sqrt();
    if d < 0.0 {
        1.0 - w
    } else {
        w
    }
}

/// Host reference pricing.
pub fn price(s: f32, x: f32, t: f32) -> (f32, f32) {
    let sqrt_t = t.sqrt();
    let d1 = (ln(s / x) + (RISK_FREE + 0.5 * VOLATILITY * VOLATILITY) * t) / (VOLATILITY * sqrt_t);
    let d2 = d1 - VOLATILITY * sqrt_t;
    let exp_rt = exp(-RISK_FREE * t);
    let call = s * cnd(d1) - x * exp_rt * cnd(d2);
    let put = x * exp_rt * cnd(-d2) - s * cnd(-d1);
    (call, put)
}

/// [`price`] over whole arrays, into `call` and `put`, one step per pass:
/// every option goes through the same f32 operations in the same order, so
/// each result is bit-identical to `price`'s, but no option waits on the
/// one before, and every pass is a plain loop over slices that vectorises,
/// `exp` and `ln` included. `cnd(d)` and `cnd(-d)` share one Gaussian and
/// one polynomial: `-d` has the same `|d|` and `d * d`.
///
/// The passes run on the widest build of them the CPU has (see
/// [`builds`]), picked on the first call. Every build does the same IEEE
/// operations, wider or narrower: no FMA (Rust never contracts a multiply
/// and an add), nothing reassociated, so the bits are the same on each.
fn price_all(s: &[f32], x: &[f32], t: &[f32], call: &mut [f32], put: &mut [f32]) {
    static WIDEST: OnceLock<Build> = OnceLock::new();
    let build = WIDEST.get_or_init(|| builds()[0].1);
    // SAFETY: `builds` lists only builds this CPU supports.
    unsafe { build(s, x, t, call, put) }
}

/// One build of [`price_all`]'s passes.
///
/// # Safety
///
/// A build compiled for a target feature runs only on a CPU that has it:
/// call one [`builds`] listed.
type Build = unsafe fn(&[f32], &[f32], &[f32], &mut [f32], &mut [f32]);

/// The builds of the passes this CPU can run, widest first, by name: on
/// x86_64 AVX-512 and AVX2 where the CPU has them, and everywhere the
/// baseline target's.
fn builds() -> Vec<(&'static str, Build)> {
    let mut builds: Vec<(&'static str, Build)> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::is_x86_feature_detected!("avx512f") {
            builds.push(("AVX-512", price_all_avx512));
        }
        if std::is_x86_feature_detected!("avx2") {
            builds.push(("AVX2", price_all_avx2));
        }
    }
    builds.push(("baseline", price_passes));
    builds
}

/// The passes compiled with AVX-512 enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn price_all_avx512(s: &[f32], x: &[f32], t: &[f32], call: &mut [f32], put: &mut [f32]) {
    price_passes(s, x, t, call, put)
}

/// The passes compiled with AVX2 enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn price_all_avx2(s: &[f32], x: &[f32], t: &[f32], call: &mut [f32], put: &mut [f32]) {
    price_passes(s, x, t, call, put)
}

/// Options priced per round of the five passes: their intermediates live
/// on the stack, three arrays of this many f32s.
const CHUNK: usize = 256;

/// The five passes of [`price_all`], inlined into each build of it, over
/// the options `CHUNK` at a time. `d1` holds `s / x` and its `ln` first,
/// `d2` holds `sqrt(t)`, and the two Gaussians are computed in `call` and
/// `put`, which the last pass overwrites with the prices.
#[inline(always)]
fn price_passes(s: &[f32], x: &[f32], t: &[f32], call: &mut [f32], put: &mut [f32]) {
    let n = s.len();
    let options = s.chunks(CHUNK).zip(x[..n].chunks(CHUNK)).zip(t[..n].chunks(CHUNK));
    let prices = call[..n].chunks_mut(CHUNK).zip(put[..n].chunks_mut(CHUNK));
    for (((s, x), t), (call, put)) in options.zip(prices) {
        // Every slice is cut to the chunk's `n`, so the loops carry no
        // bounds checks.
        let n = s.len();
        let (mut d1, mut d2, mut exp_rt) = ([0f32; CHUNK], [0f32; CHUNK], [0f32; CHUNK]);
        let (d1, d2, exp_rt) = (&mut d1[..n], &mut d2[..n], &mut exp_rt[..n]);
        let (x, t, g1, g2) = (&x[..n], &t[..n], &mut call[..n], &mut put[..n]);
        // 1. s / x and sqrt(t); 2. ln.
        for i in 0..n {
            d1[i] = s[i] / x[i];
            d2[i] = t[i].sqrt();
        }
        d1.iter_mut().for_each(|v| *v = ln(*v));
        // 3. d1, d2 and the three exponent arguments.
        for i in 0..n {
            let sqrt_t = d2[i];
            d1[i] = (d1[i] + (RISK_FREE + 0.5 * VOLATILITY * VOLATILITY) * t[i])
                / (VOLATILITY * sqrt_t);
            d2[i] = d1[i] - VOLATILITY * sqrt_t;
            exp_rt[i] = -RISK_FREE * t[i];
            g1[i] = -0.5 * d1[i] * d1[i];
            g2[i] = -0.5 * d2[i] * d2[i];
        }
        // 4. The three exps.
        for v in [&mut *exp_rt, &mut *g1, &mut *g2] {
            v.iter_mut().for_each(|v| *v = exp(*v));
        }
        // 5. The four cnds and the call/put combine. `cnd(d)` is `1 - w`
        // when `d < 0.0`, `cnd(-d)` when `-d < 0.0`, that is `d > 0.0`.
        let w = |d: f32, gauss: f32| {
            let k = 1.0 / (1.0 + CND_K * d.abs());
            let poly = k * (A[0] + k * (A[1] + k * (A[2] + k * (A[3] + k * A[4]))));
            1.0 - gauss * poly / (2.0 * std::f32::consts::PI).sqrt()
        };
        let cnd_pair =
            |d: f32, w: f32| (if d < 0.0 { 1.0 - w } else { w }, if d > 0.0 { 1.0 - w } else { w });
        for i in 0..n {
            let (c1, c1_neg) = cnd_pair(d1[i], w(d1[i], g1[i]));
            let (c2, c2_neg) = cnd_pair(d2[i], w(d2[i], g2[i]));
            g1[i] = s[i] * c1 - x[i] * exp_rt[i] * c2;
            g2[i] = x[i] * exp_rt[i] * c2_neg - s[i] * c1_neg;
        }
    }
}

thread_local! {
    /// A serving thread's copies of one launch's spots, strikes and
    /// maturities and its call and put prices, kept from one launch to the
    /// next so a launch of at most `SHADOW` options (a catalog job's)
    /// allocates nothing once the thread has priced one. A larger launch
    /// gives what it grew back when it ends.
    static BUFFERS: RefCell<[Vec<f32>; 5]> = const { RefCell::new([const { Vec::new() }; 5]) };
}

/// Installs `bs_price`: prices the shadow options into call/put arrays.
/// The inputs are copied out whole before any output is written, and the
/// calls are written whole before the puts, so arguments that alias one
/// another read and write as that order says.
pub(crate) fn install() {
    library::register(RegisteredKernel {
        desc: KernelDesc::plain("bs_price"),
        payload: Some(Arc::new(|exec: &mut KernelExec<'_>| {
            let spot = ptr_arg(exec, 0)?;
            let strike = ptr_arg(exec, 1)?;
            let years = ptr_arg(exec, 2)?;
            let call_out = ptr_arg(exec, 3)?;
            let put_out = ptr_arg(exec, 4)?;
            let n = scalar_arg(exec, 5) as usize;
            BUFFERS.with_borrow_mut(|buffers| {
                let [s, x, t, call, put] = &mut *buffers;
                let mut priced = || {
                    read_f32_into(exec, spot, n, s)?;
                    read_f32_into(exec, strike, n, x)?;
                    read_f32_into(exec, years, n, t)?;
                    call.resize(n, 0.0);
                    put.resize(n, 0.0);
                    price_all(s, x, t, call, put);
                    exec.with_f32_mut(call_out, f32_bytes(n)?, |v| v.copy_from_slice(call))?;
                    exec.with_f32_mut(put_out, f32_bytes(n)?, |v| v.copy_from_slice(put))
                };
                let priced = priced();
                for v in buffers.iter_mut().filter(|v| v.capacity() > SHADOW) {
                    v.clear();
                    v.shrink_to(SHADOW);
                }
                priced
            })
        })),
    });
}

impl Workload for BlackScholes {
    fn name(&self) -> &str {
        self.name
    }

    fn kernels(&self) -> Vec<KernelDesc> {
        vec![KernelDesc::plain("bs_price")]
    }

    fn estimated_flops(&self) -> Option<f64> {
        Some(crate::calib::flops_for_c2050_secs(
            self.kernel_secs * self.repeats as f64 * self.scale.time,
        ))
    }

    fn run(&self, client: &mut dyn CudaClient, clock: &Clock) -> CudaResult<WorkloadReport> {
        // "BS-L is a GPU-intensive application with very short CPU phases"
        // (§5.3.3): only a brief host-side option-generation phase.
        cpu_phase(clock, 0.5 * self.scale.time);
        let mut rng = XorShift::new(0x5EED_00B5);
        let s_host: Vec<f32> = (0..SHADOW).map(|_| rng.range_f32(5.0, 30.0)).collect();
        let x_host: Vec<f32> = (0..SHADOW).map(|_| rng.range_f32(1.0, 100.0)).collect();
        let t_host: Vec<f32> = (0..SHADOW).map(|_| rng.range_f32(0.25, 10.0)).collect();
        let arr_bytes = scale_bytes(self.options * 4, &self.scale);
        let s = upload_f32(client, arr_bytes, &s_host)?;
        let x = upload_f32(client, arr_bytes, &x_host)?;
        let t = upload_f32(client, arr_bytes, &t_host)?;
        let call_out = alloc(client, arr_bytes, SHADOW as u64 * 4)?;
        let put_out = alloc(client, arr_bytes, SHADOW as u64 * 4)?;
        for _ in 0..self.repeats {
            launch(
                client,
                "bs_price",
                vec![
                    KernelArg::Ptr(s),
                    KernelArg::Ptr(x),
                    KernelArg::Ptr(t),
                    KernelArg::Ptr(call_out),
                    KernelArg::Ptr(put_out),
                    KernelArg::Scalar(SHADOW as u64),
                ],
                work_c2050(self.kernel_secs * self.scale.time),
            )?;
        }
        let calls = download_f32(client, call_out, SHADOW)?;
        let puts = download_f32(client, put_out, SHADOW)?;
        for ptr in [s, x, t, call_out, put_out] {
            client.free(ptr)?;
        }
        let ok = (0..SHADOW).all(|i| {
            let (ec, ep) = price(s_host[i], x_host[i], t_host[i]);
            approx_eq(calls[i], ec) && approx_eq(puts[i], ep)
        });
        Ok(if ok {
            WorkloadReport::verified(self.name, self.repeats)
        } else {
            WorkloadReport::failed(self.name, self.repeats)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn price_matches_known_values() {
        // Spot=100, strike=100, T=1y, r=2%, σ=30%: call ≈ 12.82, put ≈ 10.84
        // (standard Black-Scholes tables).
        let (call, put) = price(100.0, 100.0, 1.0);
        assert!((call - 12.82).abs() < 0.1, "call {call}");
        assert!((put - 10.84).abs() < 0.1, "put {put}");
    }

    #[test]
    fn put_call_parity_holds() {
        // C − P = S − X·e^(−rT) for any inputs.
        for (s, x, t) in [(20.0f32, 15.0f32, 2.0f32), (8.0, 30.0, 0.5), (50.0, 50.0, 5.0)] {
            let (c, p) = price(s, x, t);
            let parity = s - x * (-RISK_FREE * t).exp();
            assert!(
                (c - p - parity).abs() < 1e-2,
                "parity violated at S={s} X={x} T={t}: {c} - {p} != {parity}"
            );
        }
    }

    #[test]
    fn deep_in_the_money_call_approaches_intrinsic() {
        let (call, put) = price(1000.0, 1.0, 0.25);
        assert!(call > 990.0);
        assert!(put < 1e-3);
    }

    /// `price`'s `d1`, to aim the edge cases.
    fn d1_of(s: f32, x: f32, t: f32) -> f32 {
        (ln(s / x) + (RISK_FREE + 0.5 * VOLATILITY * VOLATILITY) * t) / (VOLATILITY * t.sqrt())
    }

    fn assert_bit_identical(s: &[f32], x: &[f32], t: &[f32]) {
        let (mut calls, mut puts) = (vec![0f32; s.len()], vec![0f32; s.len()]);
        price_all(s, x, t, &mut calls, &mut puts);
        for i in 0..s.len() {
            let (call, put) = price(s[i], x[i], t[i]);
            assert_eq!(
                (calls[i].to_bits(), puts[i].to_bits()),
                (call.to_bits(), put.to_bits()),
                "S={} X={} T={}: pass-wise ({}, {}) vs price ({call}, {put})",
                s[i],
                x[i],
                t[i],
                calls[i],
                puts[i]
            );
        }
    }

    /// 60 000 seeded options, spot and strike log-uniform over six
    /// decades, maturities from days to decades.
    fn seeded_options() -> [Vec<f32>; 3] {
        let mut rng = XorShift::new(0xB5_B175);
        let mut log_uniform = |lo: f32, hi: f32| rng.range_f32(lo.ln(), hi.ln()).exp();
        let (mut s, mut x, mut t) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..60_000 {
            s.push(log_uniform(0.01, 10_000.0));
            x.push(log_uniform(0.01, 10_000.0));
            t.push(log_uniform(1e-3, 50.0));
        }
        [s, x, t]
    }

    #[test]
    fn pass_wise_pricing_is_bit_identical_to_price() {
        let [s, x, t] = seeded_options();
        assert_bit_identical(&s, &x, &t);

        // An option with d1 exactly zero: ln(S/X) cancels the drift term.
        // One ulp of T can move the drift by two ulps, so the search walks
        // the spot too.
        let x0 = 50.0f32;
        let near =
            |v: f32| (-16..16).map(move |k| f32::from_bits(v.to_bits().wrapping_add_signed(k)));
        let (s_zero, t_zero) = near(40.0)
            .flat_map(|s| {
                let t0 = -ln(s / x0) / (RISK_FREE + 0.5 * VOLATILITY * VOLATILITY);
                near(t0).map(move |t| (s, t))
            })
            .find(|&(s, t)| d1_of(s, x0, t) == 0.0)
            .expect("some option next to S=40, X=50 has d1 == 0");
        let edges = [
            (s_zero, x0, t_zero), // d1 == 0
            (5.0, 100.0, 0.25),   // d1 < 0, deep out of the money
            (100.0, 5.0, 0.25),   // d1 > 0, deep in the money
            (1000.0, 1.0, 0.25),  // deeper in
            (1.0, 1000.0, 10.0),  // deeper out
            (20.0, 20.0, 1.0),    // S == X
            (20.0, 20.0, 1e-20),  // S == X, tiny T
            (20.0, 21.0, 1e-12),  // tiny T: |d1| huge
            (21.0, 20.0, 1e-12),  //
            (20.0, 20.0, 1e4),    // large T
            (7.0, 90.0, 1e6),     // larger T: exp(-rT) underflows
        ];
        let mut edge = [Vec::new(), Vec::new(), Vec::new()];
        for (s, x, t) in edges {
            edge[0].push(s);
            edge[1].push(x);
            edge[2].push(t);
        }
        assert!(d1_of(5.0, 100.0, 0.25) < 0.0 && d1_of(100.0, 5.0, 0.25) > 0.0);
        assert_bit_identical(&edge[0], &edge[1], &edge[2]);
    }

    /// Every special input class: NaN, ±inf, ±0, negatives, f32's
    /// denormals and extremes, and `exp`'s overflow and underflow edges.
    const SPECIALS: [f32; 22] = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        1.0,
        -1.0,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        f32::from_bits(1),           // the smallest denormal
        f32::from_bits(0x007f_ffff), // the largest
        -f32::from_bits(1),
        f32::MAX,
        f32::MIN,
        88.72,  // e^x is f32::MAX's neighbourhood ...
        88.73,  // ... and overflows just past it
        89.0,   // the clamp
        1e30,   //
        -87.0,  // e^x near f32::MIN_POSITIVE
        -103.9, // e^x the smallest denormal
        -104.0, // the clamp: rounds to 0
        -1e30,  //
    ];

    /// The distance between two non-NaN f32s in ulps (`+0` and `-0` are
    /// one point, the infinities one ulp past the largest finite values).
    fn ulps(a: f32, b: f32) -> u64 {
        let line = |v: f32| {
            let bits = i64::from(v.to_bits() & 0x7fff_ffff);
            if v.is_sign_negative() {
                -bits
            } else {
                bits
            }
        };
        line(a).abs_diff(line(b))
    }

    #[test]
    fn exp_and_ln_stay_within_an_ulp_of_libm() {
        // Every 251st bit pattern of either sign, from the zeros through
        // the denormals to within 251 ulps of f32::MAX: 17 million inputs
        // per function.
        const STRIDE: usize = 251;
        let finite = (0..0x7f80_0000u32).chain(0x8000_0000..0xff80_0000).step_by(STRIDE);
        let mut worst = [0u64; 2];
        let mut off_by_one = [0u64; 2];
        let mut checked = 0u64;
        for v in finite.map(f32::from_bits) {
            checked += 1;
            for (i, (ours, libm)) in [(exp(v), v.exp()), (ln(v), v.ln())].into_iter().enumerate() {
                assert_eq!(
                    ours.is_nan(),
                    libm.is_nan(),
                    "x = {v:e} ({:#x}): {ours} vs {libm}",
                    v.to_bits()
                );
                if libm.is_nan() {
                    continue;
                }
                let d = ulps(ours, libm);
                assert!(
                    d <= 1,
                    "x = {v:e} ({:#x}): {ours:e} vs libm {libm:e}, {d} ulps",
                    v.to_bits()
                );
                worst[i] = worst[i].max(d);
                off_by_one[i] += d;
            }
        }
        println!(
            "{checked} inputs (stride {STRIDE}): exp worst {} ulp ({} off by one), ln worst {} ulp ({} off by one)",
            worst[0], off_by_one[0], worst[1], off_by_one[1]
        );
    }

    #[test]
    fn exp_and_ln_match_libm_exactly_on_special_values() {
        for v in SPECIALS {
            for (what, ours, libm) in [("exp", exp(v), v.exp()), ("ln", ln(v), v.ln())] {
                if libm.is_nan() {
                    assert!(ours.is_nan(), "{what}({v:e}) = {ours:e}, libm NaN");
                } else {
                    assert_eq!(
                        ours.to_bits(),
                        libm.to_bits(),
                        "{what}({v:e}): {ours:e} vs {libm:e}"
                    );
                }
            }
        }
    }

    /// [`price`] as it read with libm's `expf` and `logf`.
    fn price_libm(s: f32, x: f32, t: f32) -> (f32, f32) {
        let cnd = |d: f32| {
            let k = 1.0 / (1.0 + CND_K * d.abs());
            let poly = k * (A[0] + k * (A[1] + k * (A[2] + k * (A[3] + k * A[4]))));
            let w = 1.0 - (-0.5 * d * d).exp() * poly / (2.0 * std::f32::consts::PI).sqrt();
            if d < 0.0 {
                1.0 - w
            } else {
                w
            }
        };
        let sqrt_t = t.sqrt();
        let d1 = ((s / x).ln() + (RISK_FREE + 0.5 * VOLATILITY * VOLATILITY) * t)
            / (VOLATILITY * sqrt_t);
        let d2 = d1 - VOLATILITY * sqrt_t;
        let exp_rt = (-RISK_FREE * t).exp();
        let call = s * cnd(d1) - x * exp_rt * cnd(d2);
        let put = x * exp_rt * cnd(-d2) - s * cnd(-d1);
        (call, put)
    }

    #[test]
    fn price_agrees_with_the_libm_pricer() {
        let [s, x, t] = seeded_options();
        let (mut worst, mut at, mut differ) = (0u64, String::new(), 0usize);
        for i in 0..s.len() {
            let ours = price(s[i], x[i], t[i]);
            let libm = price_libm(s[i], x[i], t[i]);
            for (a, b) in [(ours.0, libm.0), (ours.1, libm.1)] {
                let option = || format!("S={} X={} T={}: {a:e} vs libm {b:e}", s[i], x[i], t[i]);
                assert!(approx_eq(a, b), "{}", option());
                if ulps(a, b) > worst {
                    (worst, at) = (ulps(a, b), option());
                }
                differ += usize::from(a != b);
            }
        }
        println!(
            "{} prices, {differ} differ from libm's; the most, {worst} ulp, at {at}",
            2 * s.len()
        );
    }

    #[test]
    fn every_build_prices_bit_for_bit_like_price() {
        let [mut s, mut x, mut t] = seeded_options();
        // Every special value in every slot, against an ordinary option;
        // 60 066 options in all, so the last chunk is a partial one.
        for v in SPECIALS {
            for slot in 0..3 {
                let mut option = [20.0, 25.0, 1.0];
                option[slot] = v;
                s.push(option[0]);
                x.push(option[1]);
                t.push(option[2]);
            }
        }
        assert_ne!(s.len() % CHUNK, 0);
        let expected: Vec<_> = (0..s.len()).map(|i| price(s[i], x[i], t[i])).collect();
        let builds = builds();
        for &(name, build) in &builds {
            let (mut calls, mut puts) = (vec![0f32; s.len()], vec![0f32; s.len()]);
            // SAFETY: `builds` lists only builds this CPU supports.
            unsafe { build(&s, &x, &t, &mut calls, &mut puts) };
            for (i, &(call, put)) in expected.iter().enumerate() {
                for (a, b) in [(calls[i], call), (puts[i], put)] {
                    let same = if b.is_nan() { a.is_nan() } else { a.to_bits() == b.to_bits() };
                    assert!(same, "S={} X={} T={}: {name} {a} vs price {b}", s[i], x[i], t[i]);
                }
            }
        }
        let names: Vec<_> = builds.iter().map(|&(name, _)| name).collect();
        println!("{} options priced alike by price and by {names:?}", s.len());
    }

    #[test]
    fn bs_l_footprint_fits_four_tenants_on_c2050() {
        // The Fig. 8 calibration invariant: 4 × BS-L + 4 vGPU reservations
        // must fit a 3 GiB C2050 (the paper reports zero swaps at the
        // 100% BS-L mix).
        let spec = mtgpu_gpusim::GpuSpec::tesla_c2050();
        let per_job = BlackScholes::large().options * 4 * 5; // 5 f32 arrays
        let reserved = spec.ctx_reserved_bytes * 4;
        assert!(
            4 * per_job + reserved <= spec.mem_bytes,
            "4 BS-L tenants must fit: 4×{per_job} + {reserved} > {}",
            spec.mem_bytes
        );
    }
}
