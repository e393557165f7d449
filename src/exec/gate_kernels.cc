#include "exec/gate_kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>

#include "exec/kernel_runs.h"
#include "obs/metrics.h"

namespace qkc {

namespace {

/**
 * Classification tolerance. Far below kAmpEps: we only specialize when the
 * matrix is structurally exact (analytically-constructed gates have entries
 * that are exact zeros or ~1e-17 trig residue), so a specialized kernel
 * never deviates from the dense result by more than the residue it drops.
 */
constexpr double kKernelEps = 1e-14;

bool
nearZero(const Complex& c)
{
    return std::abs(c.real()) <= kKernelEps && std::abs(c.imag()) <= kKernelEps;
}

bool
nearOne(const Complex& c)
{
    return std::abs(c.real() - 1.0) <= kKernelEps &&
           std::abs(c.imag()) <= kKernelEps;
}

bool
nearEqual(const Complex& a, const Complex& b)
{
    return std::abs(a.real() - b.real()) <= kKernelEps &&
           std::abs(a.imag() - b.imag()) <= kKernelEps;
}

/**
 * True if local qubit j (0 = MSB of the local index) is a 1-control of the
 * k-qubit matrix W: the bit-j=0 subspace is identity and fully decoupled
 * from the bit-j=1 subspace.
 */
bool
isControlQubit(const std::vector<Complex>& w, std::size_t k, std::size_t j)
{
    const std::size_t d = std::size_t{1} << k;
    const std::size_t pos = k - 1 - j;
    for (std::size_t r = 0; r < d; ++r) {
        for (std::size_t c = 0; c < d; ++c) {
            const bool rb = (r >> pos) & 1;
            const bool cb = (c >> pos) & 1;
            const Complex& e = w[r * d + c];
            if (!rb && !cb) {
                if (r == c ? !nearOne(e) : !nearZero(e))
                    return false;
            } else if (rb != cb) {
                if (!nearZero(e))
                    return false;
            }
        }
    }
    return true;
}

/** The bit-j=1 quadrant of W: the residual operator behind a control. */
std::vector<Complex>
stripControl(const std::vector<Complex>& w, std::size_t k, std::size_t j)
{
    const std::size_t d = std::size_t{1} << k;
    const std::size_t d2 = d / 2;
    const std::size_t pos = k - 1 - j;
    auto insertOne = [pos](std::size_t x) {
        const std::size_t low = x & ((std::size_t{1} << pos) - 1);
        return ((x >> pos) << (pos + 1)) | (std::size_t{1} << pos) | low;
    };
    std::vector<Complex> sub(d2 * d2);
    for (std::size_t r = 0; r < d2; ++r)
        for (std::size_t c = 0; c < d2; ++c)
            sub[r * d2 + c] = w[insertOne(r) * d + insertOne(c)];
    return sub;
}

/**
 * Expands a free-space index to a base index with zeros at every occupied
 * bit position and ones at the control bits. `occ` must be sorted ascending.
 */
inline std::uint64_t
expandBase(std::uint64_t j, const std::uint32_t* occ, unsigned count,
           std::uint64_t ctrlMask)
{
    std::uint64_t b = j;
    for (unsigned i = 0; i < count; ++i) {
        const std::uint64_t low = (std::uint64_t{1} << occ[i]) - 1;
        b = ((b & ~low) << 1) | (b & low);
    }
    return b | ctrlMask;
}

/** idx[l] for the 2^t residual basis states of one group. */
inline void
gatherIndices(std::uint64_t base, const std::uint64_t* stride, unsigned t,
              std::uint64_t* idx)
{
    const unsigned count = 1u << t;
    for (unsigned l = 0; l < count; ++l) {
        std::uint64_t v = base;
        for (unsigned j = 0; j < t; ++j) {
            if ((l >> (t - 1 - j)) & 1u)
                v += stride[j];
        }
        idx[l] = v;
    }
}

} // namespace

const char*
GateKernel::className() const
{
    switch (op) {
      case Op::Identity:
        return "identity";
      case Op::GlobalPhase:
        return "phase";
      case Op::Diag:
        return ctrlMask ? "ctrl-diag" : "diag";
      case Op::Perm:
        return ctrlMask ? "ctrl-perm" : "perm";
      case Op::Generic:
        return ctrlMask ? "ctrl-generic" : "generic";
    }
    return "?";
}

GateKernel
compileKernel(const Matrix& m, const std::vector<std::uint32_t>& bits)
{
    if (bits.empty() || bits.size() > 4)
        throw std::invalid_argument("compileKernel: arity must be 1..4");
    const std::size_t a = bits.size();
    const std::size_t dim = std::size_t{1} << a;
    if (m.rows() != dim || m.cols() != dim)
        throw std::invalid_argument("compileKernel: matrix/bit-count mismatch");

    GateKernel k;
    k.arity = static_cast<std::uint8_t>(a);
    k.full = m;
    for (std::size_t i = 0; i < a; ++i)
        k.fullBits[i] = bits[i];

    // Working copy of the matrix and the bit positions still attached to it.
    std::vector<Complex> w(dim * dim);
    for (std::size_t r = 0; r < dim; ++r)
        for (std::size_t c = 0; c < dim; ++c)
            w[r * dim + c] = m(r, c);
    std::vector<std::uint32_t> left(bits);

    // Greedy control stripping: each pass may expose further controls
    // (CCX sheds both controls one at a time).
    bool stripped = true;
    while (stripped && !left.empty()) {
        stripped = false;
        for (std::size_t j = 0; j < left.size(); ++j) {
            if (!isControlQubit(w, left.size(), j))
                continue;
            k.ctrlMask |= std::uint64_t{1} << left[j];
            w = stripControl(w, left.size(), j);
            left.erase(left.begin() + static_cast<std::ptrdiff_t>(j));
            stripped = true;
            break;
        }
    }

    const std::size_t t = left.size();
    const std::size_t td = std::size_t{1} << t;
    k.targets = static_cast<std::uint8_t>(t);
    for (std::size_t i = 0; i < t; ++i)
        k.targetBits[i] = left[i];

    // Occupied bit positions (controls + targets), ascending, for expansion.
    std::vector<std::uint32_t> occ(left);
    for (std::uint32_t b = 0; b < 64; ++b)
        if (k.ctrlMask & (std::uint64_t{1} << b))
            occ.push_back(b);
    std::sort(occ.begin(), occ.end());
    k.occupiedCount = static_cast<std::uint8_t>(occ.size());
    for (std::size_t i = 0; i < occ.size(); ++i)
        k.occupied[i] = occ[i];

    // Classify the residual operator, cheapest class first.
    bool isDiag = true;
    for (std::size_t r = 0; r < td && isDiag; ++r)
        for (std::size_t c = 0; c < td; ++c)
            if (r != c && !nearZero(w[r * td + c])) {
                isDiag = false;
                break;
            }
    if (isDiag) {
        bool allOne = true;
        bool allEqual = true;
        for (std::size_t l = 0; l < td; ++l) {
            k.diag[l] = w[l * td + l];
            allOne = allOne && nearOne(k.diag[l]);
            allEqual = allEqual && nearEqual(k.diag[l], k.diag[0]);
        }
        if (allOne) {
            k.op = GateKernel::Op::Identity;
        } else if (allEqual && k.ctrlMask == 0) {
            k.op = GateKernel::Op::GlobalPhase;
            k.scalar = k.diag[0];
        } else {
            k.op = GateKernel::Op::Diag;
        }
        return k;
    }

    // Weighted permutation: exactly one non-zero per row and per column.
    bool isPerm = t > 0;
    std::array<bool, 16> colUsed{};
    for (std::size_t r = 0; r < td && isPerm; ++r) {
        std::size_t found = td;
        for (std::size_t c = 0; c < td; ++c) {
            if (nearZero(w[r * td + c]))
                continue;
            if (found != td) {
                isPerm = false;
                break;
            }
            found = c;
        }
        if (found == td || colUsed[found]) {
            isPerm = false;
            break;
        }
        colUsed[found] = true;
        k.perm[r] = static_cast<std::uint8_t>(found);
        k.permW[r] = w[r * td + found];
    }
    if (isPerm) {
        k.op = GateKernel::Op::Perm;
        return k;
    }

    k.op = GateKernel::Op::Generic;
    k.reduced = Matrix(td, td);
    for (std::size_t r = 0; r < td; ++r)
        for (std::size_t c = 0; c < td; ++c)
            k.reduced(r, c) = w[r * td + c];
    return k;
}

bool
tryRefreshKernel(GateKernel& k, const Matrix& m)
{
    const std::size_t dim = std::size_t{1} << k.arity;
    if (m.rows() != dim || m.cols() != dim)
        return false;

    // Strip the *stored* controls (no greedy search): every bit recorded in
    // ctrlMask must still verify as a control of the new matrix.
    std::vector<Complex> w(dim * dim);
    for (std::size_t r = 0; r < dim; ++r)
        for (std::size_t c = 0; c < dim; ++c)
            w[r * dim + c] = m(r, c);
    std::vector<std::uint32_t> left(k.fullBits.begin(),
                                    k.fullBits.begin() + k.arity);
    std::uint64_t remaining = k.ctrlMask;
    while (remaining != 0) {
        bool strippedOne = false;
        for (std::size_t j = 0; j < left.size(); ++j) {
            if (!(remaining & (std::uint64_t{1} << left[j])))
                continue;
            if (!isControlQubit(w, left.size(), j))
                return false;
            remaining &= ~(std::uint64_t{1} << left[j]);
            w = stripControl(w, left.size(), j);
            left.erase(left.begin() + static_cast<std::ptrdiff_t>(j));
            strippedOne = true;
            break;
        }
        if (!strippedOne)
            return false; // a ctrl bit is not among the operand bits
    }
    if (left.size() != k.targets)
        return false;

    const std::size_t td = std::size_t{1} << k.targets;
    switch (k.op) {
      case GateKernel::Op::Identity:
        for (std::size_t r = 0; r < td; ++r)
            for (std::size_t c = 0; c < td; ++c)
                if (r == c ? !nearOne(w[r * td + c])
                           : !nearZero(w[r * td + c]))
                    return false;
        break;
      case GateKernel::Op::GlobalPhase: {
        for (std::size_t r = 0; r < td; ++r)
            for (std::size_t c = 0; c < td; ++c)
                if (r == c ? !nearEqual(w[r * td + c], w[0])
                           : !nearZero(w[r * td + c]))
                    return false;
        k.scalar = w[0];
        break;
      }
      case GateKernel::Op::Diag: {
        for (std::size_t r = 0; r < td; ++r)
            for (std::size_t c = 0; c < td; ++c)
                if (r != c && !nearZero(w[r * td + c]))
                    return false;
        for (std::size_t l = 0; l < td; ++l)
            k.diag[l] = w[l * td + l];
        break;
      }
      case GateKernel::Op::Perm: {
        // The stored pattern must still cover every non-zero entry (a
        // pattern entry itself going to zero is fine — the sweep writes 0).
        for (std::size_t r = 0; r < td; ++r)
            for (std::size_t c = 0; c < td; ++c)
                if (c != k.perm[r] && !nearZero(w[r * td + c]))
                    return false;
        for (std::size_t r = 0; r < td; ++r)
            k.permW[r] = w[r * td + k.perm[r]];
        break;
      }
      case GateKernel::Op::Generic: {
        for (std::size_t r = 0; r < td; ++r)
            for (std::size_t c = 0; c < td; ++c)
                k.reduced(r, c) = w[r * td + c];
        break;
      }
    }
    k.full = m;
    return true;
}

namespace {

/** Per-class invocation counters — the kernel mix a profile reports. */
obs::Counter&
kernelClassCounter(GateKernel::Op op)
{
    static obs::Counter identity("exec.kernel.identity");
    static obs::Counter globalPhase("exec.kernel.globalPhase");
    static obs::Counter diag("exec.kernel.diag");
    static obs::Counter perm("exec.kernel.perm");
    static obs::Counter generic("exec.kernel.generic");
    switch (op) {
      case GateKernel::Op::Identity:
        return identity;
      case GateKernel::Op::GlobalPhase:
        return globalPhase;
      case GateKernel::Op::Diag:
        return diag;
      case GateKernel::Op::Perm:
        return perm;
      default:
        return generic;
    }
}

/**
 * Records the dispatch level of the first sweep once per process, so a
 * profile or bench dump states which instruction set actually ran
 * (0 = off/scalar, 1 = avx2, 2 = avx512).
 */
void
recordSimdLevel(SimdLevel level)
{
    static obs::Counter gauge("exec.kernel.simdLevel");
    static std::atomic<bool> recorded{false};
    bool expected = false;
    if (recorded.compare_exchange_strong(expected, true,
                                         std::memory_order_relaxed))
        gauge.add(static_cast<std::uint64_t>(level));
}

/**
 * Same four-product complex multiply the run primitives use (see
 * kernel_runs.h). For finite operands this is exactly what the library
 * operator* computes, minus its NaN-recovery branch — so the gather path
 * matches the blocked path's arithmetic and skips the __muldc3 call.
 */
inline Complex
cmul(const Complex& a, const Complex& b)
{
    return Complex(a.real() * b.real() - a.imag() * b.imag(),
                   a.real() * b.imag() + a.imag() * b.real());
}

/**
 * Decomposes the free-index span [b, e) into *runs*: maximal subspans whose
 * expanded base indices are consecutive. Free bits below occupied[0] map
 * 1:1 to the low base bits, so a run has length 2^occupied[0], clipped to
 * the span (and therefore to chunk boundaries — power-of-two grains always
 * align). Calls f(base, len) per run. Requires occupiedCount >= 1.
 */
template <typename RunFn>
inline void
forEachRun(const GateKernel& k, std::uint64_t b, std::uint64_t e,
           const RunFn& f)
{
    const std::uint64_t runLen = std::uint64_t{1} << k.occupied[0];
    std::uint64_t j = b;
    while (j < e) {
        const std::uint64_t len =
            std::min(runLen - (j & (runLen - 1)), e - j);
        f(expandBase(j, k.occupied.data(), k.occupiedCount, k.ctrlMask), len);
        j += len;
    }
}

/** Minimum run length for the blocked path; below this the per-run setup
 *  outweighs the unit-stride inner loop and the gather path wins. The
 *  threshold depends only on kernel structure — never on the simd level or
 *  thread count — so the path choice cannot break bit-parity. */
constexpr std::uint64_t kMinRunLen = 4;

/**
 * True if the kernel shape has a contiguous-run primitive: residual width
 * 1 or 2 (diag/dense; 2-target perms gain nothing over gather) and runs
 * long enough to amortize per-run dispatch.
 */
bool
canBlockSweep(const GateKernel& k)
{
    if ((std::uint64_t{1} << k.occupied[0]) < kMinRunLen)
        return false;
    switch (k.op) {
      case GateKernel::Op::Diag:
      case GateKernel::Op::Generic:
        return k.targets <= 2;
      case GateKernel::Op::Perm:
        return k.targets == 1;
      default:
        return false;
    }
}

/**
 * The legacy gather sweep: one expandBase + index-gather per residual
 * group. Handles every class and shape; the blocked path above it only
 * replaces the Diag/Perm/Generic shapes with a run primitive.
 */
void
gatherSweep(const GateKernel& k, Complex* amps, std::uint64_t dim,
            const ExecPolicy& policy, const Complex& preScale)
{
    const unsigned t = k.targets;
    const unsigned td = 1u << t;
    const std::uint64_t nFree = dim >> k.occupiedCount;
    std::uint64_t stride[4] = {0, 0, 0, 0};
    for (unsigned j = 0; j < t; ++j)
        stride[j] = std::uint64_t{1} << k.targetBits[j];

    switch (k.op) {
      case GateKernel::Op::Diag: {
        std::array<Complex, 16> d;
        for (unsigned l = 0; l < td; ++l)
            d[l] = k.diag[l] * preScale;
        parallelFor(policy, nFree, [&](std::uint64_t b, std::uint64_t e) {
            for (std::uint64_t j = b; j < e; ++j) {
                const std::uint64_t base =
                    expandBase(j, k.occupied.data(), k.occupiedCount,
                               k.ctrlMask);
                std::uint64_t idx[16];
                gatherIndices(base, stride, t, idx);
                for (unsigned l = 0; l < td; ++l)
                    amps[idx[l]] = cmul(amps[idx[l]], d[l]);
            }
        });
        return;
      }
      case GateKernel::Op::Perm: {
        std::array<Complex, 16> pw;
        for (unsigned l = 0; l < td; ++l)
            pw[l] = k.permW[l] * preScale;
        parallelFor(policy, nFree, [&](std::uint64_t b, std::uint64_t e) {
            for (std::uint64_t j = b; j < e; ++j) {
                const std::uint64_t base =
                    expandBase(j, k.occupied.data(), k.occupiedCount,
                               k.ctrlMask);
                std::uint64_t idx[16];
                gatherIndices(base, stride, t, idx);
                Complex in[16];
                for (unsigned l = 0; l < td; ++l)
                    in[l] = amps[idx[l]];
                for (unsigned r = 0; r < td; ++r)
                    amps[idx[r]] = cmul(pw[r], in[k.perm[r]]);
            }
        });
        return;
      }
      case GateKernel::Op::Generic: {
        std::array<Complex, 256> rm;
        for (unsigned r = 0; r < td; ++r)
            for (unsigned c = 0; c < td; ++c)
                rm[r * td + c] = k.reduced(r, c) * preScale;
        parallelFor(policy, nFree, [&](std::uint64_t b, std::uint64_t e) {
            for (std::uint64_t j = b; j < e; ++j) {
                const std::uint64_t base =
                    expandBase(j, k.occupied.data(), k.occupiedCount,
                               k.ctrlMask);
                std::uint64_t idx[16];
                gatherIndices(base, stride, t, idx);
                Complex in[16], out[16];
                for (unsigned l = 0; l < td; ++l)
                    in[l] = amps[idx[l]];
                for (unsigned r = 0; r < td; ++r) {
                    // First-product seed, left-to-right — the association
                    // every run primitive reproduces (see kernel_runs.h).
                    Complex acc = cmul(rm[r * td], in[0]);
                    for (unsigned c = 1; c < td; ++c)
                        acc += cmul(rm[r * td + c], in[c]);
                    out[r] = acc;
                }
                for (unsigned l = 0; l < td; ++l)
                    amps[idx[l]] = out[l];
            }
        });
        return;
      }
      case GateKernel::Op::Identity:
      case GateKernel::Op::GlobalPhase:
        return; // callers handle these before sweeping
    }
}

/**
 * The cache-blocked sweep: iterates runs of consecutive base indices and
 * hands each run's 2^targets unit-stride amplitude streams to one of the
 * simd run primitives. Both halves of every high-stride amplitude pair stay
 * resident while a grain-sized block is processed. Caller guarantees
 * canBlockSweep(k).
 */
void
blockedSweep(const GateKernel& k, Complex* amps, std::uint64_t dim,
             const ExecPolicy& policy, const Complex& preScale,
             const KernelRunOps& ops)
{
    const unsigned t = k.targets;
    const std::uint64_t nFree = dim >> k.occupiedCount;
    std::uint64_t stride[4] = {0, 0, 0, 0};
    for (unsigned j = 0; j < t; ++j)
        stride[j] = std::uint64_t{1} << k.targetBits[j];

    // Stream offsets: the l-th residual basis state of a group lives at
    // base + offs[l] (gatherIndices of base 0).
    std::uint64_t offs[8] = {0};
    gatherIndices(0, stride, t, offs);

    switch (k.op) {
      case GateKernel::Op::Diag: {
        if (t == 0) {
            // Fully-controlled phase (CZ, CCZ, ...): the residual is the
            // 1x1 matrix diag[0], one stream per run.
            const Complex d0 = k.diag[0] * preScale;
            parallelFor(policy, nFree, [&](std::uint64_t b, std::uint64_t e) {
                forEachRun(k, b, e, [&](std::uint64_t base, std::uint64_t n) {
                    ops.scale(amps + base, n, d0);
                });
            });
        } else if (t == 1) {
            const Complex d0 = k.diag[0] * preScale;
            const Complex d1 = k.diag[1] * preScale;
            parallelFor(policy, nFree, [&](std::uint64_t b, std::uint64_t e) {
                forEachRun(k, b, e, [&](std::uint64_t base, std::uint64_t n) {
                    ops.diag2(amps + base, amps + base + offs[1], n, d0, d1);
                });
            });
        } else {
            Complex d[4];
            for (unsigned l = 0; l < 4; ++l)
                d[l] = k.diag[l] * preScale;
            parallelFor(policy, nFree, [&](std::uint64_t b, std::uint64_t e) {
                forEachRun(k, b, e, [&](std::uint64_t base, std::uint64_t n) {
                    ops.diag4(amps + base, amps + base + offs[1],
                              amps + base + offs[2], amps + base + offs[3],
                              n, d);
                });
            });
        }
        return;
      }
      case GateKernel::Op::Perm: {
        // A 1-target non-diagonal perm is necessarily the swap pattern.
        const Complex w0 = k.permW[0] * preScale;
        const Complex w1 = k.permW[1] * preScale;
        parallelFor(policy, nFree, [&](std::uint64_t b, std::uint64_t e) {
            forEachRun(k, b, e, [&](std::uint64_t base, std::uint64_t n) {
                ops.swap2(amps + base, amps + base + offs[1], n, w0, w1);
            });
        });
        return;
      }
      case GateKernel::Op::Generic: {
        if (t == 1) {
            Complex m[4];
            for (unsigned e2 = 0; e2 < 4; ++e2)
                m[e2] = k.reduced(e2 / 2, e2 % 2) * preScale;
            parallelFor(policy, nFree, [&](std::uint64_t b, std::uint64_t e) {
                forEachRun(k, b, e, [&](std::uint64_t base, std::uint64_t n) {
                    ops.mat2(amps + base, amps + base + offs[1], n, m);
                });
            });
        } else {
            Complex m[16];
            for (unsigned e2 = 0; e2 < 16; ++e2)
                m[e2] = k.reduced(e2 / 4, e2 % 4) * preScale;
            parallelFor(policy, nFree, [&](std::uint64_t b, std::uint64_t e) {
                forEachRun(k, b, e, [&](std::uint64_t base, std::uint64_t n) {
                    ops.mat4(amps + base, amps + base + offs[1],
                             amps + base + offs[2], amps + base + offs[3],
                             n, m);
                });
            });
        }
        return;
      }
      case GateKernel::Op::Identity:
      case GateKernel::Op::GlobalPhase:
        return; // callers handle these before sweeping
    }
}

} // namespace

void
applyKernel(const GateKernel& k, Complex* amps, std::uint64_t dim,
            const ExecPolicy& policy, const Complex& preScale)
{
    // Counts invocations by class as classified here; the scaled
    // re-classification path below recurses, so its final class is counted
    // once more under the class that actually swept the state.
    kernelClassCounter(k.op).add();

    const bool scaled = preScale != Complex{1.0, 0.0};

    if (!scaled && k.op == GateKernel::Op::Identity)
        return;

    // Scaling breaks the control structure (s*E is no longer identity on
    // the non-control subspace), so re-classify the scaled full matrix —
    // it lands in an uncontrolled specialized class (e.g. damping E0
    // becomes a plain Diag) and stays a single pass.
    if (scaled && (k.ctrlMask != 0 || k.op == GateKernel::Op::Identity)) {
        std::vector<std::uint32_t> bits(k.fullBits.begin(),
                                        k.fullBits.begin() + k.arity);
        applyKernel(compileKernel(k.full * preScale, bits), amps, dim, policy);
        return;
    }

    const KernelRunOps& ops = kernelRunOps(policy.resolvedSimd());
    recordSimdLevel(ops.level);

    if (k.op == GateKernel::Op::GlobalPhase) {
        const Complex s = k.scalar * preScale;
        parallelFor(policy, dim, [&](std::uint64_t b, std::uint64_t e) {
            ops.scale(amps + b, e - b, s);
        });
        return;
    }

    // Path choice is a function of kernel structure only (class, residual
    // width, run length) — never of the simd level or thread count — so a
    // given kernel always takes the same path and payloads stay
    // bit-identical across dispatch levels.
    static obs::Counter blockedSweeps("exec.kernel.blockedSweeps");
    static obs::Counter gatherSweeps("exec.kernel.gatherSweeps");
    if (canBlockSweep(k)) {
        blockedSweeps.add();
        blockedSweep(k, amps, dim, policy, preScale, ops);
    } else {
        gatherSweeps.add();
        gatherSweep(k, amps, dim, policy, preScale);
    }
}

void
applyKernelUnblocked(const GateKernel& k, Complex* amps, std::uint64_t dim,
                     const ExecPolicy& policy, const Complex& preScale)
{
    const bool scaled = preScale != Complex{1.0, 0.0};

    if (!scaled && k.op == GateKernel::Op::Identity)
        return;

    if (scaled && (k.ctrlMask != 0 || k.op == GateKernel::Op::Identity)) {
        std::vector<std::uint32_t> bits(k.fullBits.begin(),
                                        k.fullBits.begin() + k.arity);
        applyKernelUnblocked(compileKernel(k.full * preScale, bits), amps,
                             dim, policy);
        return;
    }

    if (k.op == GateKernel::Op::GlobalPhase) {
        const Complex s = k.scalar * preScale;
        parallelFor(policy, dim, [&](std::uint64_t b, std::uint64_t e) {
            for (std::uint64_t i = b; i < e; ++i)
                amps[i] = cmul(amps[i], s);
        });
        return;
    }

    gatherSweep(k, amps, dim, policy, preScale);
}

double
normAfterKernel(const GateKernel& k, const Complex* amps, std::uint64_t dim,
                const ExecPolicy& policy)
{
    const unsigned a = k.arity;
    const unsigned ad = 1u << a;
    const std::uint64_t nGroups = dim >> a;
    std::uint64_t stride[4] = {0, 0, 0, 0};
    std::uint32_t occ[4] = {0, 0, 0, 0};
    for (unsigned j = 0; j < a; ++j) {
        stride[j] = std::uint64_t{1} << k.fullBits[j];
        occ[j] = k.fullBits[j];
    }
    std::sort(occ, occ + a);

    return parallelSum(policy, nGroups,
                       [&](std::uint64_t b, std::uint64_t e) {
        double partial = 0.0;
        for (std::uint64_t j = b; j < e; ++j) {
            const std::uint64_t base = expandBase(j, occ, a, 0);
            std::uint64_t idx[16];
            gatherIndices(base, stride, a, idx);
            Complex in[16];
            for (unsigned l = 0; l < ad; ++l)
                in[l] = amps[idx[l]];
            for (unsigned r = 0; r < ad; ++r) {
                Complex acc{};
                for (unsigned c = 0; c < ad; ++c)
                    acc += k.full(r, c) * in[c];
                partial += norm2(acc);
            }
        }
        return partial;
    });
}

void
applyKernelReference(const GateKernel& k, Complex* amps, std::uint64_t dim)
{
    const unsigned a = k.arity;
    const unsigned ad = 1u << a;
    const std::uint64_t nGroups = dim >> a;
    std::uint64_t stride[4] = {0, 0, 0, 0};
    std::uint32_t occ[4] = {0, 0, 0, 0};
    for (unsigned j = 0; j < a; ++j) {
        stride[j] = std::uint64_t{1} << k.fullBits[j];
        occ[j] = k.fullBits[j];
    }
    std::sort(occ, occ + a);

    for (std::uint64_t j = 0; j < nGroups; ++j) {
        const std::uint64_t base = expandBase(j, occ, a, 0);
        std::uint64_t idx[16];
        gatherIndices(base, stride, a, idx);
        Complex in[16], out[16];
        for (unsigned l = 0; l < ad; ++l)
            in[l] = amps[idx[l]];
        for (unsigned r = 0; r < ad; ++r) {
            Complex acc{};
            for (unsigned c = 0; c < ad; ++c)
                acc += k.full(r, c) * in[c];
            out[r] = acc;
        }
        for (unsigned l = 0; l < ad; ++l)
            amps[idx[l]] = out[l];
    }
}

} // namespace qkc
