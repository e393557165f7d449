#include "vqa/pauli.h"

#include <stdexcept>

namespace qkc {

PauliString::PauliString(const std::string& text) : text_(text)
{
    if (text.empty())
        throw std::invalid_argument("PauliString: empty");
    if (text.size() > 63)
        throw std::invalid_argument(
            "PauliString: more than 63 qubits (the circuit qubit cap)");
    const std::size_t n = text.size();
    for (std::size_t q = 0; q < n; ++q) {
        const char c = text[q];
        if (c != 'I' && c != 'X' && c != 'Y' && c != 'Z')
            throw std::invalid_argument("PauliString: bad character");
        const std::uint64_t bit = std::uint64_t{1} << (n - 1 - q);
        if (c == 'X' || c == 'Y')
            xMask_ |= bit;
        if (c == 'Z' || c == 'Y')
            zMask_ |= bit;
    }
    static const Complex kPowersOfI[4] = {
        {1.0, 0.0}, {0.0, 1.0}, {-1.0, 0.0}, {0.0, -1.0}};
    yPhase_ = kPowersOfI[__builtin_popcountll(xMask_ & zMask_) % 4];
}

Circuit
PauliString::withMeasurementBasis(const Circuit& circuit) const
{
    if (circuit.numQubits() != numQubits())
        throw std::invalid_argument("PauliString: qubit count mismatch");
    Circuit rotated = circuit;
    for (std::size_t q = 0; q < numQubits(); ++q) {
        if (text_[q] == 'X') {
            rotated.h(q);
        } else if (text_[q] == 'Y') {
            rotated.sdg(q);
            rotated.h(q);
        }
    }
    return rotated;
}

double
PauliString::expectationFromSamples(
    const std::vector<std::uint64_t>& samples) const
{
    if (samples.empty())
        return 0.0;
    double acc = 0.0;
    for (std::uint64_t s : samples)
        acc += eigenvalue(s);
    return acc / static_cast<double>(samples.size());
}

double
PauliString::expectationFromDistribution(
    const std::vector<double>& distribution) const
{
    double acc = 0.0;
    for (std::uint64_t x = 0; x < distribution.size(); ++x)
        acc += distribution[x] * eigenvalue(x);
    return acc;
}

double
PauliString::expectation(const Complex* amps, std::size_t dim) const
{
    // Real arithmetic for conj(a) * b keeps the loop free of the library's
    // NaN-recovering complex multiply; i^{#Y} is applied once at the end.
    double re = 0.0, im = 0.0;
    for (std::uint64_t x = 0; x < dim; ++x) {
        const std::uint64_t y = x ^ xMask_;
        const Complex& a = amps[x];
        const Complex& b = amps[y];
        const double s = parity(y & zMask_) ? -1.0 : 1.0;
        re += s * (a.real() * b.real() + a.imag() * b.imag());
        im += s * (a.real() * b.imag() - a.imag() * b.real());
    }
    return (yPhase_ * Complex{re, im}).real();
}

bool
PauliSum::isDiagonal() const
{
    for (const auto& [coeff, pauli] : terms) {
        (void)coeff;
        if (!pauli.isDiagonal())
            return false;
    }
    return true;
}

} // namespace qkc
