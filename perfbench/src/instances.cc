// Workload instances: seeded graphs and angles, their QASM text, and the
// same circuits built through the program's Circuit API.
#include <cstdio>

#include "workloads.h"

namespace perfbench {

SpanRecorder&
spans()
{
    static SpanRecorder recorder;
    return recorder;
}

std::vector<Edge>
random3Regular(std::size_t n, InputRng& rng)
{
    if (n % 2 != 0 || n < 4)
        throw std::invalid_argument("random3Regular: n must be even and >= 4");
    for (;;) {
        std::vector<std::size_t> stubs;
        for (std::size_t v = 0; v < n; ++v)
            for (int k = 0; k < 3; ++k)
                stubs.push_back(v);
        for (std::size_t i = stubs.size(); i > 1; --i)
            std::swap(stubs[i - 1], stubs[rng.below(i)]);
        std::vector<Edge> edges;
        bool ok = true;
        for (std::size_t i = 0; ok && i < stubs.size(); i += 2) {
            std::size_t u = stubs[i], v = stubs[i + 1];
            if (u == v) {
                ok = false;
                break;
            }
            if (u > v)
                std::swap(u, v);
            for (const Edge& e : edges)
                if (e.first == u && e.second == v)
                    ok = false;
            edges.emplace_back(u, v);
        }
        if (ok) {
            std::sort(edges.begin(), edges.end());
            return edges;
        }
    }
}

QaoaInstance
svInstance(std::uint64_t seed)
{
    InputRng rng(streamSeed(seed, 1));
    QaoaInstance inst;
    inst.n = kSvQubits;
    inst.p = kSvDepth;
    inst.edges = random3Regular(inst.n, rng);
    return inst;
}

QaoaInstance
kcInstance(std::uint64_t seed, std::size_t index)
{
    InputRng rng(streamSeed(seed, 1 + 1000 * index));
    QaoaInstance inst;
    inst.n = kKcQubits;
    inst.p = kKcDepth;
    inst.edges = random3Regular(inst.n, rng);
    inst.depolarizing = kKcNoise;
    return inst;
}

std::string
qaoaQasm(const QaoaInstance& inst, const std::vector<double>& angles)
{
    std::string q = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";
    q += "qreg q[" + std::to_string(inst.n) + "];\n";
    char buf[128];
    auto noise = [&](std::size_t qubit) {
        if (inst.depolarizing <= 0.0)
            return;
        std::snprintf(buf, sizeof(buf), "// qkc.noise depolarizing %zu %.17g\n",
                      qubit, inst.depolarizing);
        q += buf;
    };
    for (std::size_t i = 0; i < inst.n; ++i) {
        q += "h q[" + std::to_string(i) + "];\n";
        noise(i);
    }
    for (std::size_t layer = 0; layer < inst.p; ++layer) {
        for (const auto& [u, v] : inst.edges) {
            std::snprintf(buf, sizeof(buf), "rzz(%.17g) q[%zu],q[%zu];\n",
                          angles[2 * layer], u, v);
            q += buf;
            noise(u);
            noise(v);
        }
        for (std::size_t i = 0; i < inst.n; ++i) {
            std::snprintf(buf, sizeof(buf), "rx(%.17g) q[%zu];\n",
                          2.0 * angles[2 * layer + 1], i);
            q += buf;
            noise(i);
        }
    }
    return q;
}

qkc::Circuit
qaoaCircuit(const QaoaInstance& inst, const std::vector<double>& angles)
{
    qkc::Circuit c(inst.n);
    auto noise = [&](std::size_t qubit) {
        if (inst.depolarizing > 0.0)
            c.append(qkc::NoiseChannel::depolarizing(qubit, inst.depolarizing));
    };
    for (std::size_t i = 0; i < inst.n; ++i) {
        c.h(i);
        noise(i);
    }
    for (std::size_t layer = 0; layer < inst.p; ++layer) {
        for (const auto& [u, v] : inst.edges) {
            c.zz(u, v, angles[2 * layer]);
            noise(u);
            noise(v);
        }
        for (std::size_t i = 0; i < inst.n; ++i) {
            c.rx(i, 2.0 * angles[2 * layer + 1]);
            noise(i);
        }
    }
    return c;
}

qkc::PauliSum
cutObservable(const QaoaInstance& inst)
{
    qkc::PauliSum h;
    h.add(static_cast<double>(inst.edges.size()) / 2.0,
          qkc::PauliString(std::string(inst.n, 'I')));
    for (const auto& [u, v] : inst.edges) {
        std::string term(inst.n, 'I');
        term[u] = 'Z';
        term[v] = 'Z';
        h.add(-0.5, qkc::PauliString(term));
    }
    return h;
}

} // namespace perfbench
