#include "densitymatrix/density_matrix.h"

#include <cassert>
#include <stdexcept>
#include <variant>

namespace qkc {

namespace {

std::size_t
checkedDimension(std::size_t numQubits)
{
    if (numQubits == 0 || numQubits > 14)
        throw std::invalid_argument("DensityMatrix: qubit count out of range");
    return std::size_t{1} << numQubits;
}

Matrix
conjugated(const Matrix& m)
{
    Matrix c(m.rows(), m.cols());
    for (std::size_t r = 0; r < m.rows(); ++r)
        for (std::size_t col = 0; col < m.cols(); ++col)
            c(r, col) = std::conj(m(r, col));
    return c;
}

} // namespace

DensityMatrix::DensityMatrix(std::size_t numQubits)
    : numQubits_(numQubits), dim_(checkedDimension(numQubits)),
      data_(dim_ * dim_)
{
    data_[0] = 1.0;
}

std::vector<SuperOperand>
superOperands(const Operation& op, std::size_t numQubits)
{
    const std::vector<std::size_t>& qubits =
        std::visit([](const auto& o) -> const std::vector<std::size_t>& {
            return o.qubits();
        }, op);
    std::vector<std::uint32_t> rowBits, colBits;
    for (std::size_t q : qubits) {
        assert(q < numQubits);
        const std::uint32_t s =
            static_cast<std::uint32_t>(numQubits - 1 - q);
        rowBits.push_back(s + static_cast<std::uint32_t>(numQubits));
        colBits.push_back(s);
    }

    // (rho M^dagger)(., c) = sum_k rho(., k) conj(M(c, k)): the column-space
    // operator is the elementwise conjugate of M (no transpose).
    if (const Gate* g = std::get_if<Gate>(&op))
        return {{g->unitary(), rowBits}, {conjugated(g->unitary()), colBits}};

    // The flattened local index is (row << k) | col, so E rho E^dagger is
    // E (x) conj(E) on the row bits followed by the column bits.
    const auto& kraus = std::get<NoiseChannel>(op).krausOperators();
    Matrix liouville = kraus.front().kron(conjugated(kraus.front()));
    for (std::size_t i = 1; i < kraus.size(); ++i)
        liouville = liouville + kraus[i].kron(conjugated(kraus[i]));
    rowBits.insert(rowBits.end(), colBits.begin(), colBits.end());
    return {{std::move(liouville), std::move(rowBits)}};
}

void
DensityMatrix::apply(const GateKernel& k)
{
    applyKernel(k, data_.data(), static_cast<std::uint64_t>(dim_) * dim_,
                policy_);
}

void
DensityMatrix::apply(const Operation& op)
{
    for (const SuperOperand& s : superOperands(op, numQubits_))
        apply(compileKernel(s.matrix, s.bits));
}

Complex
DensityMatrix::trace() const
{
    Complex t{};
    for (std::uint64_t i = 0; i < dim_; ++i)
        t += at(i, i);
    return t;
}

std::vector<double>
DensityMatrix::diagonalProbabilities() const
{
    std::vector<double> probs(dim_);
    for (std::uint64_t i = 0; i < dim_; ++i)
        probs[i] = at(i, i).real();
    return probs;
}

Matrix
DensityMatrix::toMatrix() const
{
    Matrix m(dim_, dim_);
    for (std::uint64_t r = 0; r < dim_; ++r)
        for (std::uint64_t c = 0; c < dim_; ++c)
            m(r, c) = at(r, c);
    return m;
}

} // namespace qkc
