//===- benchmark/src/Workloads.cpp ----------------------------------------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "guest/Assembler.h"
#include "guest/GuestMemory.h"
#include "guest/Interpreter.h"
#include "mda/Policies.h"
#include "support/RNG.h"
#include "workloads/Hostile.h"
#include "workloads/Kernels.h"
#include "workloads/SpecPrograms.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <unordered_set>

using namespace mdabt;
using namespace mdabt::benchmark;

namespace {

using mda::MechanismKind;

// The five Fig. 16 columns at their best configurations.
const mda::PolicySpec EhSpec{MechanismKind::ExceptionHandling, 50, false, 0,
                             false};
const mda::PolicySpec DpehSpec{MechanismKind::Dpeh, 50, false, 0, false};
const mda::PolicySpec DynProfSpec{MechanismKind::DynamicProfiling, 50, false,
                                  0, false};
const mda::PolicySpec StaticSpec{MechanismKind::StaticProfiling, 0, false, 0,
                                 false};
const mda::PolicySpec DirectSpec{MechanismKind::Direct, 0, false, 0, false};

/// Fisher-Yates with the repository's deterministic generator, so a seed
/// gives the same order on every platform.
template <typename T> void shuffle(std::vector<T> &V, RNG &Rng) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[Rng.below(I)]);
}

/// Requests per unit of the seconds budget, calibrated on the reference
/// 4-core machine (benchmark/README.md gives each workload's phase time
/// at the default budget).  The work is fixed for a given budget, so
/// every modeled count repeats exactly.
size_t scaled(unsigned Seconds, double PerSecond, size_t Min) {
  return std::max(Min, static_cast<size_t>(Seconds * PerSecond + 0.5));
}

Program specProgram(const workloads::BenchmarkInfo &Info,
                    const workloads::ScaleConfig &Scale, bool WithTrain) {
  Program P;
  P.Name = Info.Name;
  P.Image = workloads::buildBenchmark(Info, workloads::InputKind::Ref, Scale);
  if (WithTrain)
    P.Train =
        workloads::buildBenchmark(Info, workloads::InputKind::Train, Scale);
  return P;
}

/// fig16: the paper's headline figure.  21 SPEC-shaped programs x the
/// five mechanisms, default EngineConfig; the seed only orders them.
Workload fig16(uint64_t Seed, unsigned Seconds, bool Tiny) {
  Workload W;
  workloads::ScaleConfig Scale;
  Scale.TotalRefs = Tiny ? 60'000 : 1'500'000;
  std::vector<const workloads::BenchmarkInfo *> Infos =
      workloads::selectedBenchmarks();
  if (Tiny)
    Infos.resize(2);
  for (const workloads::BenchmarkInfo *Info : Infos)
    W.Programs.push_back(specProgram(*Info, Scale, /*WithTrain=*/true));

  const mda::PolicySpec Columns[] = {EhSpec, DpehSpec, DynProfSpec,
                                     StaticSpec, DirectSpec};
  std::vector<Request> Pass;
  for (size_t P = 0; P != W.Programs.size(); ++P)
    for (const mda::PolicySpec &Spec : Columns)
      Pass.push_back({P, Spec, dbt::EngineConfig()});
  RNG Rng(Seed ^ 0xF16F16ULL);
  size_t Passes = Tiny ? 1 : scaled(Seconds, 1.0 / 20, 1);
  for (size_t I = 0; I != Passes; ++I) {
    shuffle(Pass, Rng);
    W.Requests.insert(W.Requests.end(), Pass.begin(), Pass.end());
  }
  return W;
}

/// serving: short requests from two closed-loop clients against one
/// shared translation service.  Three in four re-run one of 11 catalog
/// tenants (cache reads); one in four runs a unique program whose code
/// bytes are new (cache misses and publishes).
Workload serving(uint64_t Seed, unsigned Seconds, bool Tiny) {
  Workload W;
  W.Clients = 2;
  W.SharedService = true;
  workloads::ScaleConfig Scale;
  Scale.TotalRefs = 20'000;

  dbt::EngineConfig Config;
  Config.Analysis = true;
  Config.HashDispatch = true;
  Config.InlineCaches = true;
  Config.Superblocks = true;
  const mda::PolicySpec Eh{MechanismKind::ExceptionHandling, 50, true, 0,
                           false};
  const mda::PolicySpec Dpeh{MechanismKind::Dpeh, 50, false, 4, false};

  std::vector<Request> Tenants;
  for (const char *Name :
       {"164.gzip", "179.art", "433.milc", "482.sphinx3"}) {
    W.Programs.push_back(
        specProgram(*workloads::findBenchmark(Name), Scale, false));
    Tenants.push_back({W.Programs.size() - 1, Eh, Config});
    Tenants.push_back({W.Programs.size() - 1, Dpeh, Config});
  }
  for (workloads::HostileProgram &H : workloads::hostileCatalog()) {
    W.Programs.push_back({H.Name, std::move(H.Image), std::nullopt, {}});
    Tenants.push_back({W.Programs.size() - 1, Dpeh, Config});
  }

  size_t N = Tiny ? 40 : scaled(Seconds, 60.0, 100);
  size_t Unique = N / 4;
  RNG Rng(Seed ^ 0x5E4F1A6ULL);
  // Unique programs rotate over the 21 selected rows and both policies,
  // so every seed does the same amount of work; only the seed-drawn
  // Plan.Seed (the generated immediates, hence the code bytes) differs.
  std::vector<const workloads::BenchmarkInfo *> Rows =
      workloads::selectedBenchmarks();
  for (size_t K = 0; K != Unique; ++K) {
    workloads::ProgramPlan Plan = workloads::makePlan(*Rows[K % Rows.size()],
                                                      Scale);
    Plan.Seed = Rng.next();
    Program P;
    P.Name = Plan.Name + "#" + std::to_string(K);
    P.Image = workloads::buildProgram(Plan, workloads::InputKind::Ref);
    W.Programs.push_back(std::move(P));
    W.Requests.push_back(
        {W.Programs.size() - 1, (K / Rows.size()) % 2 ? Eh : Dpeh, Config});
  }
  for (size_t I = 0; I != N - Unique; ++I)
    W.Requests.push_back(Tenants[I % Tenants.size()]);
  shuffle(W.Requests, Rng);
  return W;
}

/// Hot call/ret kernel: one callee returning alternately to two call
/// sites, so its return's inline cache needs two ways.
guest::GuestImage callRetKernel(uint32_t Iters) {
  using namespace guest;
  ProgramBuilder B("k.callret");
  uint32_t Buf = B.dataReserve(64, 8);
  ProgramBuilder::Label F = B.newLabel();
  B.movri(1, 0);
  B.movri(0, static_cast<int32_t>(Buf));
  B.movri(2, 0);
  ProgramBuilder::Label Loop = B.here();
  B.call(F);
  B.call(F);
  B.addi(1, 1);
  B.cmpi(1, static_cast<int32_t>(Iters));
  B.jcc(Cond::B, Loop);
  B.chk(2);
  B.halt();
  B.bind(F);
  B.stl(mem(0, 0), 1);
  B.ldl(3, mem(0, 0));
  B.add(2, 3);
  B.ret();
  return B.build();
}

/// Hot three-block loop (if/else arms), the shape superblock formation
/// straightens.
guest::GuestImage multiBlockKernel(uint32_t Iters) {
  using namespace guest;
  ProgramBuilder B("k.loop3");
  uint32_t Buf = B.dataReserve(64, 8);
  B.movri(1, 0);
  B.movri(0, static_cast<int32_t>(Buf));
  B.movri(2, 0);
  ProgramBuilder::Label Odd = B.newLabel(), Join = B.newLabel();
  ProgramBuilder::Label Loop = B.here();
  B.movrr(3, 1);
  B.andi(3, 1);
  B.cmpi(3, 0);
  B.jcc(Cond::Ne, Odd);
  B.stl(mem(0, 0), 1);
  B.ldl(3, mem(0, 0));
  B.add(2, 3);
  B.jmp(Join);
  B.bind(Odd);
  B.stl(mem(0, 4), 2);
  B.ldl(3, mem(0, 4));
  B.add(2, 3);
  B.bind(Join);
  B.addi(1, 1);
  B.cmpi(1, static_cast<int32_t>(Iters));
  B.jcc(Cond::B, Loop);
  B.chk(2);
  B.halt();
  return B.build();
}

/// hotpath: four aligned kernels in steady-state translated code, every
/// dispatch mechanism and fusion on.  Almost no translations or traps.
Workload hotpath(uint64_t Seed, unsigned Seconds, bool Tiny) {
  Workload W;
  dbt::EngineConfig Config;
  Config.HashDispatch = true;
  Config.InlineCaches = true;
  Config.Superblocks = true;
  Config.Fusion = true;
  // The kernels take about 200, 150, 110 and 80 ms per request (each with
  // about 28 ms of fixed per-run memory set-up and hash), and the two
  // slower ones run 3 times for every 2 runs of the faster ones.  Sorted
  // by latency, p50 then falls inside k.loop3's group and p90 inside
  // k.callret's, not on the edge between two groups, where it would
  // measure noise.
  uint32_t Div = Tiny ? 50 : 1;
  W.Programs.push_back(
      {"k.callret", callRetKernel(480'000 / Div), std::nullopt, {}});
  W.Programs.push_back(
      {"k.loop3", multiBlockKernel(1'400'000 / Div), std::nullopt, {}});
  W.Programs.push_back(
      {"k.memcpy", workloads::buildFusionMemcpyKernel(256, 4'300 / Div),
       std::nullopt, {}});
  W.Programs.push_back(
      {"k.memset", workloads::buildFusionMemsetKernel(256, 8'100 / Div),
       std::nullopt, {}});
  size_t Slow = Tiny ? 1 : scaled(Seconds, 1.8, 30);
  size_t Fast = Tiny ? 1 : scaled(Seconds, 1.2, 20);
  for (size_t P = 0; P != W.Programs.size(); ++P)
    for (size_t R = 0; R != (P < 2 ? Slow : Fast); ++R)
      W.Requests.push_back({P, DpehSpec, Config});
  RNG Rng(Seed ^ 0x407FA7ULL);
  shuffle(W.Requests, Rng);
  return W;
}

/// static_verify: the static passes, AOT startup and the verifier, which
/// fig16 never runs.  21 SPEC programs plus the 3 hostile SMC guests under
/// EH and DPEH, each pair three times.
Workload staticVerify(uint64_t Seed, unsigned Seconds, bool Tiny) {
  Workload W;
  workloads::ScaleConfig Scale;
  Scale.TotalRefs = 20'000;
  std::vector<const workloads::BenchmarkInfo *> Infos =
      workloads::selectedBenchmarks();
  if (Tiny)
    Infos.resize(2);
  for (const workloads::BenchmarkInfo *Info : Infos)
    W.Programs.push_back(specProgram(*Info, Scale, false));
  for (workloads::HostileProgram &H : workloads::hostileCatalog())
    W.Programs.push_back({H.Name, std::move(H.Image), std::nullopt, {}});

  dbt::EngineConfig Config;
  Config.Analysis = true;
  Config.Verify = true;
  Config.Aot = dbt::AotMode::Hybrid;
  size_t Reps = Tiny ? 1 : scaled(Seconds, 0.15, 3);
  for (size_t R = 0; R != Reps; ++R)
    for (size_t P = 0; P != W.Programs.size(); ++P)
      for (const mda::PolicySpec &Spec : {EhSpec, DpehSpec})
        W.Requests.push_back({P, Spec, Config});
  RNG Rng(Seed ^ 0x57A71CULL);
  shuffle(W.Requests, Rng);
  return W;
}

} // namespace

const std::vector<std::string> &mdabt::benchmark::workloadNames() {
  static const std::vector<std::string> Names = {"fig16", "serving",
                                                 "hotpath", "static_verify"};
  return Names;
}

std::optional<Workload> mdabt::benchmark::buildWorkload(const std::string &Name,
                                                        uint64_t Seed,
                                                        unsigned Seconds,
                                                        bool Tiny) {
  if (Name == "fig16")
    return fig16(Seed, Seconds, Tiny);
  if (Name == "serving")
    return serving(Seed, Seconds, Tiny);
  if (Name == "hotpath")
    return hotpath(Seed, Seconds, Tiny);
  if (Name == "static_verify")
    return staticVerify(Seed, Seconds, Tiny);
  return std::nullopt;
}

std::vector<std::unique_ptr<dbt::MdaPolicy>>
mdabt::benchmark::makePolicies(const Workload &W,
                               const std::vector<size_t> &Indices) {
  std::unordered_map<size_t, std::unordered_set<uint32_t>> Profiles;
  std::vector<std::unique_ptr<dbt::MdaPolicy>> Out;
  Out.reserve(Indices.size());
  for (size_t I : Indices) {
    const Request &R = W.Requests[I];
    if (R.Spec.Kind != MechanismKind::StaticProfiling) {
      Out.push_back(mda::makePolicy(R.Spec));
      continue;
    }
    auto It = Profiles.find(R.Program);
    if (It == Profiles.end())
      It = Profiles
               .emplace(R.Program,
                        mda::StaticProfilePolicy::collectProfile(
                            *W.Programs[R.Program].Train))
               .first;
    Out.push_back(std::make_unique<mda::StaticProfilePolicy>(It->second));
  }
  return Out;
}

Oracle mdabt::benchmark::runOracle(const guest::GuestImage &Image,
                                   double &InterpSeconds) {
  guest::GuestMemory Mem;
  Mem.loadImage(Image);
  guest::GuestCPU Cpu;
  Cpu.reset(Image);
  Oracle O;
  auto T0 = std::chrono::steady_clock::now();
  O.Insts = guest::Interpreter(Mem).run(Cpu);
  InterpSeconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - T0)
                      .count();
  O.Halted = Cpu.Halted;
  O.Checksum = Cpu.Checksum;
  O.MemoryHash = dbt::fnv1a(Mem.data(), Mem.size());
  std::copy(std::begin(Cpu.Gpr), std::end(Cpu.Gpr), O.Gpr);
  std::copy(std::begin(Cpu.Qreg), std::end(Cpu.Qreg), O.Qreg);
  return O;
}

bool mdabt::benchmark::matchesOracle(const dbt::RunResult &R,
                                     const Oracle &O) {
  return O.Halted && R.completed() && R.Checksum == O.Checksum &&
         R.MemoryHash == O.MemoryHash &&
         std::equal(std::begin(O.Gpr), std::end(O.Gpr), R.FinalCpu.Gpr) &&
         std::equal(std::begin(O.Qreg), std::end(O.Qreg), R.FinalCpu.Qreg);
}
