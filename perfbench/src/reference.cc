#include "reference.h"

#include <cmath>
#include <complex>
#include <type_traits>

namespace perfbench {

namespace {

using C = std::complex<double>;

/** Bit position of qubit q (qubit 0 is the most significant bit). */
std::uint64_t
maskOf(std::size_t n, std::size_t q)
{
    return std::uint64_t{1} << (n - 1 - q);
}

/** Plain state vector: one full loop over the amplitudes per gate. */
struct PlainState {
    std::size_t n;
    std::vector<C> amp;

    explicit PlainState(std::size_t qubits)
        : n(qubits), amp(std::size_t{1} << qubits, C(0.0, 0.0))
    {
        amp[0] = 1.0;
    }

    /** Applies the 2x2 matrix {{a, b}, {c, d}} to qubit q. */
    void apply1q(std::size_t q, C a, C b, C c, C d)
    {
        const std::uint64_t m = maskOf(n, q);
        for (std::uint64_t i = 0; i < amp.size(); ++i) {
            if (i & m)
                continue;
            const C x = amp[i];
            const C y = amp[i | m];
            amp[i] = a * x + b * y;
            amp[i | m] = c * x + d * y;
        }
    }

    /** rzz(gamma) = exp(-i gamma/2 Z_u Z_v). */
    void zz(std::size_t u, std::size_t v, double gamma)
    {
        const std::uint64_t mu = maskOf(n, u), mv = maskOf(n, v);
        const C same = std::polar(1.0, -gamma / 2.0);
        const C diff = std::polar(1.0, gamma / 2.0);
        for (std::uint64_t i = 0; i < amp.size(); ++i)
            amp[i] *= (((i & mu) != 0) == ((i & mv) != 0)) ? same : diff;
    }
};

/** Plain density matrix rho[r * dim + c], updated by full loops. */
struct PlainDensity {
    std::size_t n;
    std::uint64_t dim;
    std::vector<C> rho;

    explicit PlainDensity(std::size_t qubits)
        : n(qubits), dim(std::uint64_t{1} << qubits),
          rho(static_cast<std::size_t>(dim * dim), C(0.0, 0.0))
    {
        rho[0] = 1.0;
    }

    /** rho -> U rho U^dagger for U = {{a, b}, {c, d}} on qubit q. */
    void apply1q(std::size_t q, C a, C b, C c, C d)
    {
        const std::uint64_t m = maskOf(n, q);
        // Left multiplication: rows r0 (bit clear) and r1 = r0 | m.
        for (std::uint64_t r = 0; r < dim; ++r) {
            if (r & m)
                continue;
            for (std::uint64_t col = 0; col < dim; ++col) {
                C& x = rho[r * dim + col];
                C& y = rho[(r | m) * dim + col];
                const C x0 = x, y0 = y;
                x = a * x0 + b * y0;
                y = c * x0 + d * y0;
            }
        }
        // Right multiplication by U^dagger: columns c0 and c1 = c0 | m.
        for (std::uint64_t r = 0; r < dim; ++r) {
            for (std::uint64_t col = 0; col < dim; ++col) {
                if (col & m)
                    continue;
                C& x = rho[r * dim + col];
                C& y = rho[r * dim + (col | m)];
                const C x0 = x, y0 = y;
                x = x0 * std::conj(a) + y0 * std::conj(b);
                y = x0 * std::conj(c) + y0 * std::conj(d);
            }
        }
    }

    void zz(std::size_t u, std::size_t v, double gamma)
    {
        const std::uint64_t mu = maskOf(n, u), mv = maskOf(n, v);
        auto phase = [&](std::uint64_t i) {
            return std::polar(1.0, (((i & mu) != 0) == ((i & mv) != 0))
                                       ? -gamma / 2.0
                                       : gamma / 2.0);
        };
        for (std::uint64_t r = 0; r < dim; ++r)
            for (std::uint64_t col = 0; col < dim; ++col)
                rho[r * dim + col] *= phase(r) * std::conj(phase(col));
    }

    /**
     * Symmetric depolarizing, rho -> (1-p) rho + p/3 (X rho X + Y rho Y +
     * Z rho Z), worked out on each 2x2 block of qubit q: the diagonal
     * entries mix with weight 2p/3, the off-diagonal ones shrink by 1-4p/3.
     */
    void depolarize(std::size_t q, double p)
    {
        const std::uint64_t m = maskOf(n, q);
        const double keep = 1.0 - 2.0 * p / 3.0, swap = 2.0 * p / 3.0;
        const double shrink = 1.0 - 4.0 * p / 3.0;
        for (std::uint64_t r = 0; r < dim; ++r) {
            if (r & m)
                continue;
            for (std::uint64_t col = 0; col < dim; ++col) {
                if (col & m)
                    continue;
                C& b00 = rho[r * dim + col];
                C& b01 = rho[r * dim + (col | m)];
                C& b10 = rho[(r | m) * dim + col];
                C& b11 = rho[(r | m) * dim + (col | m)];
                const C d0 = b00, d1 = b11;
                b00 = keep * d0 + swap * d1;
                b11 = keep * d1 + swap * d0;
                b01 *= shrink;
                b10 *= shrink;
            }
        }
    }
};

const double kInvSqrt2 = 1.0 / std::sqrt(2.0);

/** Runs the QAOA gate sequence on a plain simulator S. */
template <class S>
void
runQaoa(S& s, const QaoaInstance& inst, const std::vector<double>& angles)
{
    const double p = inst.depolarizing;
    auto noise = [&](std::size_t q) {
        if constexpr (std::is_same_v<S, PlainDensity>) {
            if (p > 0.0)
                s.depolarize(q, p);
        }
    };
    for (std::size_t q = 0; q < inst.n; ++q) {
        s.apply1q(q, kInvSqrt2, kInvSqrt2, kInvSqrt2, -kInvSqrt2);
        noise(q);
    }
    for (std::size_t layer = 0; layer < inst.p; ++layer) {
        const double gamma = angles[2 * layer];
        const double beta = angles[2 * layer + 1];
        for (const auto& [u, v] : inst.edges) {
            s.zz(u, v, gamma);
            noise(u);
            noise(v);
        }
        // rx(2 beta) = {{cos beta, -i sin beta}, {-i sin beta, cos beta}}.
        const C cb(std::cos(beta), 0.0), sb(0.0, -std::sin(beta));
        for (std::size_t q = 0; q < inst.n; ++q) {
            s.apply1q(q, cb, sb, sb, cb);
            noise(q);
        }
    }
}

} // namespace

std::vector<double>
referenceProbabilities(const QaoaInstance& inst, const std::vector<double>& angles)
{
    PlainState s(inst.n);
    runQaoa(s, inst, angles);
    std::vector<double> probs(s.amp.size());
    for (std::size_t i = 0; i < probs.size(); ++i)
        probs[i] = std::norm(s.amp[i]);
    return probs;
}

std::vector<double>
referenceNoisyProbabilities(const QaoaInstance& inst,
                            const std::vector<double>& angles)
{
    PlainDensity d(inst.n);
    runQaoa(d, inst, angles);
    std::vector<double> probs(d.dim);
    for (std::uint64_t i = 0; i < d.dim; ++i)
        probs[i] = d.rho[i * d.dim + i].real();
    return probs;
}

CutMoments
cutMoments(const QaoaInstance& inst, const std::vector<double>& probs)
{
    double m1 = 0.0, m2 = 0.0;
    for (std::uint64_t x = 0; x < probs.size(); ++x) {
        const double c = static_cast<double>(inst.cut(x));
        m1 += probs[x] * c;
        m2 += probs[x] * c * c;
    }
    return {m1, std::max(0.0, m2 - m1 * m1)};
}

double
sampleMeanCut(const QaoaInstance& inst, const std::vector<std::uint64_t>& samples)
{
    double s = 0.0;
    for (std::uint64_t x : samples)
        s += static_cast<double>(inst.cut(x));
    return samples.empty() ? 0.0 : s / static_cast<double>(samples.size());
}

std::string
checkSampleShape(const std::vector<std::uint64_t>& samples, std::size_t shots,
                 std::size_t n)
{
    if (samples.size() != shots)
        return "expected " + std::to_string(shots) + " outcomes, got " +
               std::to_string(samples.size());
    const std::uint64_t limit = std::uint64_t{1} << n;
    for (std::uint64_t x : samples)
        if (x >= limit)
            return "outcome " + std::to_string(x) + " is not below 2^" +
                   std::to_string(n);
    return {};
}

std::string
checkSampleMeanCut(const QaoaInstance& inst,
                   const std::vector<std::uint64_t>& samples, const CutMoments& ref)
{
    const double got = sampleMeanCut(inst, samples);
    const double bound =
        kCltSigmas * std::sqrt(ref.variance / static_cast<double>(samples.size())) +
        1e-12;
    if (std::abs(got - ref.mean) > bound) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "sample mean cut %.6f vs reference %.6f exceeds the "
                      "CLT bound %.6f",
                      got, ref.mean, bound);
        return buf;
    }
    return {};
}

std::string
checkExpectation(double value, double reference)
{
    if (!(std::abs(value - reference) <= 1e-9)) {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "expectation %.15g vs reference %.15g differs by more "
                      "than 1e-9",
                      value, reference);
        return buf;
    }
    return {};
}

std::string
checkGibbsPooled(const QaoaInstance& inst,
                 const std::vector<std::vector<std::uint64_t>>& chains,
                 const CutMoments& ref)
{
    if (chains.size() < 2)
        return "need at least two chains for a standard error";
    std::vector<double> means;
    for (const auto& c : chains)
        means.push_back(sampleMeanCut(inst, c));
    const double pooled = mean(means);
    const double se = stddev(means) / std::sqrt(static_cast<double>(means.size()));
    const double bound = kMcmcSigmas * se + 1e-12;
    if (std::abs(pooled - ref.mean) > bound) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "pooled Gibbs mean cut %.6f vs reference %.6f exceeds "
                      "the MCMC bound %.6f",
                      pooled, ref.mean, bound);
        return buf;
    }
    return {};
}

std::string
checkIdentical(const std::vector<std::uint64_t>& a,
               const std::vector<std::uint64_t>& b)
{
    if (a.size() != b.size())
        return "payload sizes differ (" + std::to_string(a.size()) + " vs " +
               std::to_string(b.size()) + ")";
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i] != b[i])
            return "payloads differ at outcome " + std::to_string(i);
    return {};
}

} // namespace perfbench
