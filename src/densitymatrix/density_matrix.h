#ifndef QKC_DENSITYMATRIX_DENSITY_MATRIX_H
#define QKC_DENSITYMATRIX_DENSITY_MATRIX_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "circuit/circuit.h"
#include "exec/gate_kernels.h"
#include "exec/thread_pool.h"
#include "linalg/aligned.h"
#include "linalg/matrix.h"
#include "linalg/types.h"

namespace qkc {

/**
 * Dense 2^n x 2^n density matrix, evolved by exec gate kernels on its
 * flattened index space.
 *
 * This is the representation behind the Cirq density-matrix baseline the
 * paper benchmarks in Figure 9: quadratic storage in the state-vector size
 * and matrix-matrix (rather than matrix-vector) update cost, which is why
 * knowledge compilation breaks even at fewer qubits in the noisy case.
 *
 * rho is stored row-major, so flat(r, c) = r * 2^n + c and the row/column
 * index spaces are the high/low n bits of a 2n-bit index. Every operation
 * lowers (superOperands) to a short list of kernels on those bits and is
 * applied in place, one sweep per kernel:
 *   - a gate U is U on the row bits and conj(U) on the column bits, so both
 *     sweeps inherit the kernel specialization (a CZ is a masked sign flip);
 *   - a channel is its Liouville superoperator sum_k E_k (x) conj(E_k) on
 *     the row and column bits together: one sweep, no temporaries.
 *
 * rho index convention matches Circuit (qubit 0 is the most significant bit
 * of a row/column index).
 */
class DensityMatrix {
  public:
    /** Initializes |0...0><0...0|. */
    explicit DensityMatrix(std::size_t numQubits);

    std::size_t numQubits() const { return numQubits_; }
    std::size_t dimension() const { return dim_; }

    /** Threading knobs for every kernel sweep on this matrix. */
    const ExecPolicy& execPolicy() const { return policy_; }
    void setExecPolicy(const ExecPolicy& policy) { policy_ = policy; }

    Complex& at(std::uint64_t row, std::uint64_t col)
    {
        return data_[row * dim_ + col];
    }
    const Complex& at(std::uint64_t row, std::uint64_t col) const
    {
        return data_[row * dim_ + col];
    }

    /** One sweep of a kernel compiled on flattened-rho bits. */
    void apply(const GateKernel& k);

    /** rho <- U rho U^dagger for a gate, sum_k E_k rho E_k^dagger for a
     *  channel: lowers the op (superOperands) and applies its kernels. */
    void apply(const Operation& op);

    /** Tr(rho). */
    Complex trace() const;

    /** Measurement probabilities: the (real parts of the) diagonal. */
    std::vector<double> diagonalProbabilities() const;

    /** Extracts the full matrix (tests / small instances only). */
    Matrix toMatrix() const;

  private:
    std::size_t numQubits_;
    std::size_t dim_;
    AmpVector data_; ///< row-major rho, 64-byte aligned like every amp buffer
    ExecPolicy policy_;
};

/** A matrix and the flattened-rho bit positions it acts on (local MSB
 *  first), ready for compileKernel. */
struct SuperOperand {
    Matrix matrix;
    std::vector<std::uint32_t> bits;
};

/**
 * Lowers `op` on an n-qubit density matrix to the operands whose kernels,
 * applied in order, perform it: (U on the row bits, conj(U) on the column
 * bits) for a gate, and the single Liouville superoperator
 * sum_k E_k (x) conj(E_k) on (row bits, column bits) for a channel — a 4x4
 * on two bits for a one-qubit channel, a 16x16 on four bits for a
 * two-qubit one.
 */
std::vector<SuperOperand> superOperands(const Operation& op,
                                        std::size_t numQubits);

} // namespace qkc

#endif // QKC_DENSITYMATRIX_DENSITY_MATRIX_H
