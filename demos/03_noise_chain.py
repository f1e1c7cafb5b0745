"""Inside the pseudo-random noise chain.

Two maximal-length LFSRs are XOR-combined into a gold-code stream,
duty-cycled by pulse-density modulation to set the noise level, and
smoothed by an RC low-pass into an approximately Gaussian current.  The
two registers share one polynomial, so their XOR is one m-sequence at a
third phase (the shift-and-add property), and the emulated chain reads
each lane's bits at that phase directly.  The
noise-level study at the end reproduces the characteristic U-shape:
intermediate levels beat both extremes once the chain's non-idealities
(pulse starvation at low duty, driver compression at high duty) are in
play.
"""

from pathlib import Path

import numpy as np
from scipy import stats

from spusim import NoiseChainConfig, SamplingPlan, gold_bits, pdm_gate, rc_filter
from spusim.linalg import parameter_study
from spusim.svgplot import line_plot

out = Path(__file__).parent / "out"
out.mkdir(exist_ok=True)

# gold-code stream statistics
bits = gold_bits(0xACE1, 0x1D2F, 200_000)
print(f"gold stream density: {bits.mean():.4f} (want ~0.5)")

# PDM sets the RMS: variance of the gated +-1 stream is the duty cycle
pm = bits.astype(float) * 2 - 1
for duty in (0.1, 0.5, 0.9):
    gated = pdm_gate(pm, duty)
    print(f"duty {duty:.1f}: stream variance {gated.var():.4f}")

# RC filtering makes the marginal near-Gaussian
filtered = rc_filter(pm, time_constant=150.0, dt=1.0)
decimated = filtered[2000::600]
print(f"normality p-value of the filtered stream: "
      f"{stats.normaltest(decimated).pvalue:.3f}")
hist, edges = np.histogram(filtered[2000:], bins=60, density=True)
np.savetxt(out / "filtered_histogram.csv",
           np.column_stack([0.5 * (edges[:-1] + edges[1:]), hist]),
           delimiter=",", header="value,density", comments="", fmt="%.8g")

# noise-level study on a coupled 4-cell target with the hardware-faithful
# chain: a saturating driver degrades high levels, pulse starvation low ones
rng = np.random.default_rng(5)
q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
target = q @ np.diag(rng.uniform(0.8, 1.6, 4)) @ q.T
target = 0.5 * (target + target.T)
tau = float(np.max(np.linalg.eigvalsh(target)))  # correlation time at R = 1
chain = NoiseChainConfig.matched(tau, saturation=2.5)
plan = SamplingPlan(n_samples=12_000, chains=32)
levels = [0.02, 0.2, 1.0]
study = parameter_study("noise_level", levels, target, plan, seed=6, noise=chain)
final = {}
for row in study.rows:
    final[row.value] = row.covariance_error  # last row per level wins
print("noise level -> covariance error at the full budget:")
for level in levels:
    print(f"  {level:5.2f} -> {final[level]:.4f}")
series = [(list(final.keys()), list(final.values()), "covariance error")]
line_plot(out / "noise_level_study.svg", series, title="noise-level study",
          xlabel="noise level (PDM duty)", ylabel="covariance error",
          log_x=True, log_y=True)
np.savetxt(out / "noise_level_study.csv",
           np.array([[lv, final[lv]] for lv in levels]),
           delimiter=",", header="noise_level,cov_err", comments="", fmt="%.8g")
print(f"artifacts in {out}")
