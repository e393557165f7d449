#include "dd/dd_package.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <unordered_set>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace qkc {

namespace {

/**
 * Magnitudes below this are flushed to exact zero so that destructive
 * interference produces the canonical zero edge instead of a full-depth
 * diagram of ~1e-16 residues. The introduced error is orders of magnitude
 * below the library-wide kAmpEps = 1e-9.
 */
constexpr double kFlushNorm2 = 1e-26;

VEdge
zeroV()
{
    return VEdge{};
}

MEdge
zeroM()
{
    return MEdge{};
}

bool
negligible(const Complex& w)
{
    return norm2(w) < kFlushNorm2;
}

} // namespace

DdPackage::DdPackage(std::size_t numQubits) : numQubits_(numQubits)
{
    if (numQubits == 0)
        throw std::invalid_argument("DdPackage: need at least one qubit");
}

std::size_t
DdPackage::VKeyHash::operator()(const VKey& k) const
{
    // Interned weight components are canonical pointers: equal-within-
    // tolerance weights share the same pointer, so hashing the pointer is
    // exact.
    std::uint64_t h = k.level;
    for (std::size_t i = 0; i < 2; ++i) {
        h = ddHashMix(h, reinterpret_cast<std::uintptr_t>(k.nodes[i]));
        h = ddHashMix(h, reinterpret_cast<std::uintptr_t>(k.weights[i].re));
        h = ddHashMix(h, reinterpret_cast<std::uintptr_t>(k.weights[i].im));
    }
    return static_cast<std::size_t>(h);
}

std::size_t
DdPackage::MKeyHash::operator()(const MKey& k) const
{
    std::uint64_t h = k.level;
    for (std::size_t i = 0; i < 4; ++i) {
        h = ddHashMix(h, reinterpret_cast<std::uintptr_t>(k.nodes[i]));
        h = ddHashMix(h, reinterpret_cast<std::uintptr_t>(k.weights[i].re));
        h = ddHashMix(h, reinterpret_cast<std::uintptr_t>(k.weights[i].im));
    }
    return static_cast<std::size_t>(h);
}

std::size_t
DdPackage::ApplyKeyHash::operator()(const ApplyKey& k) const
{
    std::uint64_t h = ddHashMix(0x517cc1b727220a95ULL,
                                reinterpret_cast<std::uintptr_t>(k.m));
    return static_cast<std::size_t>(
        ddHashMix(h, reinterpret_cast<std::uintptr_t>(k.v)));
}

std::size_t
DdPackage::AddKeyHash::operator()(const AddKey& k) const
{
    std::uint64_t h = ddHashMix(0x2545f4914f6cdd1dULL,
                                reinterpret_cast<std::uintptr_t>(k.a));
    h = ddHashMix(h, reinterpret_cast<std::uintptr_t>(k.b));
    h = ddHashMix(h, static_cast<std::uint64_t>(k.ratio.re));
    return static_cast<std::size_t>(
        ddHashMix(h, static_cast<std::uint64_t>(k.ratio.im)));
}

VEdge
DdPackage::makeVNode(std::size_t level, const VEdge& e0, const VEdge& e1)
{
    VEdge c0 = negligible(e0.weight) ? zeroV() : e0;
    VEdge c1 = negligible(e1.weight) ? zeroV() : e1;

    const double n0 = norm2(c0.weight);
    const double n1 = norm2(c1.weight);
    const double total = n0 + n1;
    if (total < kFlushNorm2)
        return zeroV();

    const double mag = std::sqrt(total);
    const Complex lead = n0 > 0.0 ? c0.weight : c1.weight;
    const double leadMag = std::abs(lead);
    const Complex factor = lead * (mag / leadMag);

    c0.weight = c0.weight / factor;
    c1.weight = c1.weight / factor;
    // The leading child weight is real by construction; make it exact.
    if (n0 > 0.0)
        c0.weight = Complex(std::sqrt(n0) / mag, 0.0);
    else
        c1.weight = Complex(std::sqrt(n1) / mag, 0.0);

    // Intern through the complex table and snap the stored weights to their
    // canonical representatives: weights equal within ComplexTable
    // tolerance become *identical*, giving exact keys without the grid
    // quantization's boundary-straddle dedup misses.
    const InternedComplex i0 = internComplex(weights_, c0.weight);
    const InternedComplex i1 = internComplex(weights_, c1.weight);
    c0.weight = i0.value();
    c1.weight = i1.value();

    VKey key{level, {c0.node, c1.node}, {i0, i1}};
    auto it = vUnique_.find(key);
    if (it != vUnique_.end()) {
        ++stats_.vHits;
        return VEdge{it->second, factor};
    }
    VNode* node;
    if (vFree_ != nullptr) {
        node = vFree_;
        vFree_ = node->nextFree;
    } else {
        vArena_.emplace_back();
        node = &vArena_.back();
    }
    *node = VNode{{c0, c1}, level, nullptr, 0, 0};
    vUnique_.emplace(key, node);
    ++stats_.allocatedVNodes;
    ++stats_.liveVNodes;
    notePeak();
    return VEdge{node, factor};
}

MEdge
DdPackage::makeMNode(std::size_t level, const std::array<MEdge, 4>& children)
{
    std::array<MEdge, 4> c = children;
    std::size_t argmax = 4;
    double maxNorm = 0.0;
    for (std::size_t i = 0; i < 4; ++i) {
        if (negligible(c[i].weight))
            c[i] = zeroM();
        const double n = norm2(c[i].weight);
        if (n > maxNorm) {
            maxNorm = n;
            argmax = i;
        }
    }
    if (argmax == 4)
        return zeroM();

    const Complex factor = c[argmax].weight;
    for (auto& ch : c)
        ch.weight = ch.weight / factor;
    c[argmax].weight = Complex(1.0, 0.0);

    std::array<InternedComplex, 4> iw;
    for (std::size_t i = 0; i < 4; ++i) {
        iw[i] = internComplex(weights_, c[i].weight);
        c[i].weight = iw[i].value();
    }

    MKey key{level, {c[0].node, c[1].node, c[2].node, c[3].node}, iw};
    auto it = mUnique_.find(key);
    if (it != mUnique_.end()) {
        ++stats_.mHits;
        return MEdge{it->second, factor};
    }
    MNode* node;
    if (mFree_ != nullptr) {
        node = mFree_;
        mFree_ = node->nextFree;
    } else {
        mArena_.emplace_back();
        node = &mArena_.back();
    }
    *node = MNode{c, level, nullptr, 0, 0};
    mUnique_.emplace(key, node);
    ++stats_.allocatedMNodes;
    ++stats_.liveMNodes;
    notePeak();
    return MEdge{node, factor};
}

VEdge
DdPackage::makeZeroState()
{
    return makeBasisState(0);
}

VEdge
DdPackage::makeBasisState(std::uint64_t basis)
{
    VEdge e{nullptr, Complex(1.0, 0.0)};
    for (std::size_t l = numQubits_; l-- > 0;) {
        const bool bit = (basis >> (numQubits_ - 1 - l)) & 1u;
        e = bit ? makeVNode(l, zeroV(), e) : makeVNode(l, e, zeroV());
    }
    return e;
}

MEdge
DdPackage::buildGateLevel(const Matrix& u,
                          const std::vector<std::size_t>& qubits,
                          std::size_t level, std::size_t row, std::size_t col)
{
    if (level == numQubits_) {
        const Complex& w = u(row, col);
        return negligible(w) ? zeroM() : MEdge{nullptr, w};
    }

    std::size_t local = qubits.size();
    for (std::size_t j = 0; j < qubits.size(); ++j) {
        if (qubits[j] == level) {
            local = j;
            break;
        }
    }

    if (local == qubits.size()) {
        // Uninvolved qubit: identity block structure.
        MEdge sub = buildGateLevel(u, qubits, level + 1, row, col);
        return makeMNode(level, {sub, zeroM(), zeroM(), sub});
    }

    // qubits[0] is the MSB of the gate's local basis index.
    const std::size_t bitPos = qubits.size() - 1 - local;
    std::array<MEdge, 4> c;
    for (std::size_t rb = 0; rb < 2; ++rb) {
        for (std::size_t cb = 0; cb < 2; ++cb) {
            c[2 * rb + cb] =
                buildGateLevel(u, qubits, level + 1, row | (rb << bitPos),
                               col | (cb << bitPos));
        }
    }
    return makeMNode(level, c);
}

MEdge
DdPackage::makePauliDd(const std::string& paulis)
{
    if (paulis.size() != numQubits_)
        throw std::invalid_argument("DdPackage::makePauliDd: string length "
                                    "does not match the qubit count");
    MEdge e{nullptr, Complex(1.0, 0.0)};
    for (std::size_t l = numQubits_; l-- > 0;) {
        const MEdge sub = e;
        auto scaled = [&](double re, double im) {
            MEdge s = sub;
            s.weight = s.weight * Complex(re, im);
            return s;
        };
        std::array<MEdge, 4> c;
        switch (paulis[l]) {
          case 'I':
            c = {sub, zeroM(), zeroM(), sub};
            break;
          case 'X':
            c = {zeroM(), sub, sub, zeroM()};
            break;
          case 'Y':
            c = {zeroM(), scaled(0.0, -1.0), scaled(0.0, 1.0), zeroM()};
            break;
          case 'Z':
            c = {sub, zeroM(), zeroM(), scaled(-1.0, 0.0)};
            break;
          default:
            throw std::invalid_argument(
                "DdPackage::makePauliDd: factors must be one of I, X, Y, Z");
        }
        e = makeMNode(l, c);
    }
    return e;
}

MEdge
DdPackage::makeGateDd(const Matrix& u, const std::vector<std::size_t>& qubits)
{
    const std::size_t dim = std::size_t{1} << qubits.size();
    if (u.rows() != dim || u.cols() != dim)
        throw std::invalid_argument("DdPackage::makeGateDd: matrix/qubit "
                                    "arity mismatch");
    for (std::size_t q : qubits) {
        if (q >= numQubits_)
            throw std::invalid_argument("DdPackage::makeGateDd: qubit index "
                                        "out of range");
    }
    return buildGateLevel(u, qubits, 0, 0, 0);
}

VEdge
DdPackage::addNodes(VNode* a, VNode* b, const Complex& ratio)
{
    // Ratios beyond the quantization grid's exact range would alias under
    // ddQuantize's clamp and could serve a memoized result for a genuinely
    // different ratio — skip the cache for those (rare) calls.
    const bool cacheable = std::abs(ratio.real()) <= 1e6 &&
                           std::abs(ratio.imag()) <= 1e6;
    AddKey key{a, b, ddQuantize(ratio)};
    if (cacheable) {
        auto it = addCache_.find(key);
        if (it != addCache_.end()) {
            ++stats_.addHits;
            return it->second;
        }
    }
    ++stats_.addMisses;

    std::array<VEdge, 2> c;
    for (std::size_t i = 0; i < 2; ++i) {
        const VEdge& ca = a->children[i];
        VEdge cb = b->children[i];
        cb.weight = cb.weight * ratio;
        c[i] = add(ca, cb);
    }
    VEdge result = makeVNode(a->level, c[0], c[1]);
    if (cacheable)
        addCache_.emplace(key, result);
    return result;
}

VEdge
DdPackage::add(const VEdge& a, const VEdge& b)
{
    if (a.isZero() || negligible(a.weight))
        return negligible(b.weight) ? zeroV() : b;
    if (b.isZero() || negligible(b.weight))
        return a;

    if (a.node == b.node) {
        // Identical subtrees (or both terminal): weights add directly.
        const Complex w = a.weight + b.weight;
        return negligible(w) ? zeroV() : VEdge{a.node, w};
    }
    if (a.isTerminal() || b.isTerminal()) {
        throw std::logic_error("DdPackage::add: misaligned diagram levels");
    }
    if (a.node->level != b.node->level) {
        throw std::logic_error("DdPackage::add: misaligned diagram levels");
    }

    // Factor out a's weight so the memo key depends only on the node pair
    // and the relative weight of b.
    const Complex ratio = b.weight / a.weight;
    VEdge r = addNodes(a.node, b.node, ratio);
    r.weight = r.weight * a.weight;
    return negligible(r.weight) ? zeroV() : r;
}

VEdge
DdPackage::apply(const MEdge& m, const VEdge& v)
{
    if (m.isZero() || v.isZero() || negligible(m.weight) ||
        negligible(v.weight)) {
        return zeroV();
    }

    const Complex w = m.weight * v.weight;
    if (m.isTerminal() && v.isTerminal())
        return VEdge{nullptr, w};
    if (m.isTerminal() || v.isTerminal())
        throw std::logic_error("DdPackage::apply: misaligned diagram levels");

    ApplyKey key{m.node, v.node};
    auto it = applyCache_.find(key);
    if (it != applyCache_.end()) {
        ++stats_.applyHits;
        VEdge r = it->second;
        r.weight = r.weight * w;
        return negligible(r.weight) ? zeroV() : r;
    }
    ++stats_.applyMisses;

    std::array<VEdge, 2> rows;
    for (std::size_t rb = 0; rb < 2; ++rb) {
        VEdge t0 = apply(m.node->children[2 * rb + 0], v.node->children[0]);
        VEdge t1 = apply(m.node->children[2 * rb + 1], v.node->children[1]);
        rows[rb] = add(t0, t1);
    }
    VEdge result = makeVNode(m.node->level, rows[0], rows[1]);
    applyCache_.emplace(key, result);
    result.weight = result.weight * w;
    return negligible(result.weight) ? zeroV() : result;
}

Complex
DdPackage::amplitude(const VEdge& state, std::uint64_t basis) const
{
    Complex a = state.weight;
    const VNode* node = state.node;
    for (std::size_t l = 0; l < numQubits_; ++l) {
        if (node == nullptr)
            return Complex(0.0, 0.0); // zero edge above the terminal
        const bool bit = (basis >> (numQubits_ - 1 - l)) & 1u;
        const VEdge& child = node->children[bit];
        a *= child.weight;
        node = child.node;
    }
    return a;
}

double
DdPackage::normSquared(const VEdge& state) const
{
    return norm2(state.weight);
}

namespace {

struct IpKey {
    const VNode* a;
    const VNode* b;
    bool operator==(const IpKey& o) const { return a == o.a && b == o.b; }
};

struct IpKeyHash {
    std::size_t operator()(const IpKey& k) const
    {
        const std::size_t ha = std::hash<const void*>()(k.a);
        const std::size_t hb = std::hash<const void*>()(k.b);
        return ha ^ (hb * 0x9e3779b97f4a7c15ULL);
    }
};

/** Node-to-node inner product, both subtrees' root weights excluded. */
Complex
innerProductNodes(const VNode* a, const VNode* b,
                  std::unordered_map<IpKey, Complex, IpKeyHash>& memo)
{
    if (a == nullptr || b == nullptr)
        return Complex(1.0, 0.0); // both terminal (zero edges never recurse)
    const IpKey key{a, b};
    if (auto it = memo.find(key); it != memo.end())
        return it->second;
    Complex acc(0.0, 0.0);
    for (int c = 0; c < 2; ++c) {
        const VEdge& ea = a->children[c];
        const VEdge& eb = b->children[c];
        if (ea.isZero() || eb.isZero())
            continue;
        acc += std::conj(ea.weight) * eb.weight *
               innerProductNodes(ea.node, eb.node, memo);
    }
    memo.emplace(key, acc);
    return acc;
}

} // namespace

Complex
DdPackage::innerProduct(const VEdge& a, const VEdge& b) const
{
    if (a.isZero() || b.isZero())
        return Complex(0.0, 0.0);
    std::unordered_map<IpKey, Complex, IpKeyHash> memo;
    return std::conj(a.weight) * b.weight *
           innerProductNodes(a.node, b.node, memo);
}

VEdge
DdPackage::normalized(const VEdge& state) const
{
    const double n2 = norm2(state.weight);
    if (n2 <= 0.0)
        throw std::invalid_argument("DdPackage::normalized: zero state");
    VEdge e = state;
    e.weight = e.weight / std::sqrt(n2);
    return e;
}

std::vector<double>
DdPackage::probabilities(const VEdge& state) const
{
    if (numQubits_ > 30)
        throw std::invalid_argument("DdPackage::probabilities: state too "
                                    "large to enumerate");
    std::vector<double> probs(std::size_t{1} << numQubits_);
    for (std::uint64_t x = 0; x < probs.size(); ++x)
        probs[x] = norm2(amplitude(state, x));
    return probs;
}

std::uint64_t
DdPackage::sampleOutcome(const VEdge& state, Rng& rng) const
{
    if (state.isZero())
        throw std::invalid_argument("DdPackage::sampleOutcome: zero state");
    std::uint64_t outcome = 0;
    const VNode* node = state.node;
    for (std::size_t l = 0; l < numQubits_; ++l) {
        if (node == nullptr)
            throw std::logic_error("DdPackage::sampleOutcome: truncated "
                                   "diagram");
        const double p0 = norm2(node->children[0].weight);
        const double p1 = norm2(node->children[1].weight);
        const bool bit = rng.uniform() * (p0 + p1) >= p0;
        outcome |= static_cast<std::uint64_t>(bit)
                   << (numQubits_ - 1 - node->level);
        node = node->children[bit].node;
    }
    return outcome;
}

void
DdPackage::countNodes(const VNode* node,
                      std::unordered_set<const VNode*>& seen) const
{
    if (node == nullptr || !seen.insert(node).second)
        return;
    countNodes(node->children[0].node, seen);
    countNodes(node->children[1].node, seen);
}

std::size_t
DdPackage::nodeCount(const VEdge& state) const
{
    std::unordered_set<const VNode*> seen;
    countNodes(state.node, seen);
    return seen.size();
}

namespace {

void
countMNodes(const MNode* node, std::unordered_set<const MNode*>& seen)
{
    if (node == nullptr || !seen.insert(node).second)
        return;
    for (const MEdge& c : node->children)
        countMNodes(c.node, seen);
}

} // namespace

std::size_t
DdPackage::nodeCount(const MEdge& op) const
{
    std::unordered_set<const MNode*> seen;
    countMNodes(op.node, seen);
    return seen.size();
}

// ---------------------------------------------------------------------------
// Memory lifecycle
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint32_t kRefSaturated =
    std::numeric_limits<std::uint32_t>::max();

/** Removes one root entry matching `node` (registration is per-protect). */
template <typename EdgeT, typename NodeT>
void
dropRoot(std::vector<EdgeT>& roots, const NodeT* node, const char* what)
{
    auto it = std::find_if(roots.begin(), roots.end(),
                           [&](const EdgeT& r) { return r.node == node; });
    if (it == roots.end())
        throw std::logic_error(std::string("DdPackage::unprotect: ") + what +
                               " edge was not protected");
    roots.erase(it);
}

} // namespace

void
DdPackage::setGcThreshold(std::size_t threshold)
{
    if (threshold == 0)
        throw std::invalid_argument("DdPackage::setGcThreshold: threshold "
                                    "must be >= 1 node");
    gcThreshold_ = threshold;
}

void
DdPackage::incRef(const VEdge& e)
{
    VNode* n = e.node;
    if (n == nullptr || n->ref == kRefSaturated)
        return;
    if (n->ref++ == 0) {
        incRef(n->children[0]);
        incRef(n->children[1]);
    }
}

void
DdPackage::decRef(const VEdge& e)
{
    VNode* n = e.node;
    if (n == nullptr || n->ref == kRefSaturated)
        return;
    if (n->ref == 0)
        throw std::logic_error("DdPackage::decRef: vector node has no "
                               "references");
    if (--n->ref == 0) {
        decRef(n->children[0]);
        decRef(n->children[1]);
    }
}

void
DdPackage::incRef(const MEdge& e)
{
    MNode* n = e.node;
    if (n == nullptr || n->ref == kRefSaturated)
        return;
    if (n->ref++ == 0)
        for (const MEdge& c : n->children)
            incRef(c);
}

void
DdPackage::decRef(const MEdge& e)
{
    MNode* n = e.node;
    if (n == nullptr || n->ref == kRefSaturated)
        return;
    if (n->ref == 0)
        throw std::logic_error("DdPackage::decRef: matrix node has no "
                               "references");
    if (--n->ref == 0)
        for (const MEdge& c : n->children)
            decRef(c);
}

void
DdPackage::protect(const VEdge& e)
{
    incRef(e);
    if (e.node != nullptr)
        vRoots_.push_back(e);
}

void
DdPackage::unprotect(const VEdge& e)
{
    if (e.node == nullptr)
        return;
    dropRoot(vRoots_, e.node, "vector");
    decRef(e);
}

void
DdPackage::protect(const MEdge& e)
{
    incRef(e);
    if (e.node != nullptr)
        mRoots_.push_back(e);
}

void
DdPackage::unprotect(const MEdge& e)
{
    if (e.node == nullptr)
        return;
    dropRoot(mRoots_, e.node, "matrix");
    decRef(e);
}

void
DdPackage::markV(VNode* node)
{
    if (node == nullptr || node->mark == gcGeneration_)
        return;
    node->mark = gcGeneration_;
    markV(node->children[0].node);
    markV(node->children[1].node);
}

void
DdPackage::markM(MNode* node)
{
    if (node == nullptr || node->mark == gcGeneration_)
        return;
    node->mark = gcGeneration_;
    for (const MEdge& c : node->children)
        markM(c.node);
}

std::size_t
DdPackage::garbageCollect()
{
    // The pause shows up as a span (nested under dd.build / dd.trimBatchLane
    // in traces) and feeds the pause-duration histogram; gcNanos accumulates
    // the same interval so DdMemoryStats can report it without obs on.
    QKC_SPAN("dd.gc");
    const std::uint64_t gcStart = qkc::obs::nowNs();
    // Mark: everything reachable from a protected root or a node some
    // caller still references. Reference counts are recursive, so marking
    // each ref > 0 table entry (plus its descendants, which covers
    // saturated counts) is exactly the live set.
    ++gcGeneration_;
    for (const VEdge& r : vRoots_)
        markV(r.node);
    for (const MEdge& r : mRoots_)
        markM(r.node);
    for (const auto& [key, node] : vUnique_) {
        (void)key;
        if (node->ref > 0)
            markV(node);
    }
    for (const auto& [key, node] : mUnique_) {
        (void)key;
        if (node->ref > 0)
            markM(node);
    }

    // Sweep: evict dead unique-table entries onto the free lists. The
    // compute tables key on raw node pointers — a recycled address would
    // serve a stale result — so they are dropped wholesale.
    std::size_t collected = 0;
    for (auto it = vUnique_.begin(); it != vUnique_.end();) {
        VNode* node = it->second;
        if (node->mark != gcGeneration_) {
            it = vUnique_.erase(it);
            node->nextFree = vFree_;
            vFree_ = node;
            --stats_.liveVNodes;
            ++collected;
        } else {
            ++it;
        }
    }
    for (auto it = mUnique_.begin(); it != mUnique_.end();) {
        MNode* node = it->second;
        if (node->mark != gcGeneration_) {
            it = mUnique_.erase(it);
            node->nextFree = mFree_;
            mFree_ = node;
            --stats_.liveMNodes;
            ++collected;
        } else {
            ++it;
        }
    }
    clearComputeTables();

    // Surviving unique-table keys are the only holders of interned weight
    // pointers (nodes store snapped values); sweep the rest.
    std::unordered_set<const double*> liveWeights;
    for (const auto& [key, node] : vUnique_) {
        (void)node;
        for (const InternedComplex& w : key.weights) {
            liveWeights.insert(w.re);
            liveWeights.insert(w.im);
        }
    }
    for (const auto& [key, node] : mUnique_) {
        (void)node;
        for (const InternedComplex& w : key.weights) {
            liveWeights.insert(w.re);
            liveWeights.insert(w.im);
        }
    }
    weights_.sweep(liveWeights);

    ++stats_.gcRuns;
    stats_.nodesCollected += collected;
    const std::uint64_t pause = qkc::obs::nowNs() - gcStart;
    stats_.gcNanos += pause;
    static qkc::obs::Histogram gcPause("dd.gc.pauseNs");
    gcPause.record(pause);
    static qkc::obs::Counter gcCollected("dd.gc.nodesCollected");
    gcCollected.add(collected);
    return collected;
}

bool
DdPackage::maybeGarbageCollect()
{
    if (stats_.liveVNodes + stats_.liveMNodes < gcThreshold_)
        return false;
    garbageCollect();
    // Anti-thrash: when the table was mostly live, the working set has
    // outgrown the trigger — raise it so the next sweep waits for a
    // comparable amount of new garbage.
    const std::size_t live = stats_.liveVNodes + stats_.liveMNodes;
    if (live * 2 > gcThreshold_)
        gcThreshold_ = live * 2;
    return true;
}

void
DdPackage::notePeak()
{
    stats_.peakLiveNodes = std::max(stats_.peakLiveNodes,
                                    stats_.liveVNodes + stats_.liveMNodes);
}

void
DdPackage::clearComputeTables()
{
    applyCache_.clear();
    addCache_.clear();
}

void
DdPackage::reset()
{
    clearComputeTables();
    vUnique_.clear();
    mUnique_.clear();
    vArena_.clear();
    mArena_.clear();
    vFree_ = nullptr;
    mFree_ = nullptr;
    vRoots_.clear();
    mRoots_.clear();
    weights_.clear();
    stats_ = DdStats{};
}

} // namespace qkc
