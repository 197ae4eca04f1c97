//===- bench/micro_components.cpp - Component microbenchmarks -------------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark microbenchmarks for the infrastructure itself:
/// interpreter and host-simulator throughput, translation speed, cache
/// model, codecs, and MDA stub generation.  These are not paper results;
/// they bound the wall-clock cost of the experiment harness.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "dbt/Engine.h"
#include "dbt/FusionRules.h"
#include "dbt/GuestBlock.h"
#include "dbt/Translator.h"
#include "guest/Assembler.h"
#include "guest/Encoding.h"
#include "guest/Interpreter.h"
#include "host/HostAssembler.h"
#include "host/HostMachine.h"
#include "host/MdaSequences.h"
#include "mda/Policies.h"
#include "reporting/Experiment.h"
#include "support/CacheModel.h"
#include "support/RNG.h"
#include "support/ThreadPool.h"
#include "workloads/Kernels.h"
#include "workloads/SpecCatalog.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>

using namespace mdabt;

namespace {

guest::GuestImage sumLoop(uint32_t Iters, bool Misaligned) {
  guest::ProgramBuilder B("bench");
  uint32_t Buf = B.dataReserve(Iters * 4 + 16, 8);
  B.movri(0, static_cast<int32_t>(Buf + (Misaligned ? 1 : 0)));
  B.movri(1, 0);
  B.movri(2, 0);
  guest::ProgramBuilder::Label Loop = B.here();
  B.stl(guest::memIdx(0, 1, 2, 0), 1);
  B.ldl(3, guest::memIdx(0, 1, 2, 0));
  B.add(2, 3);
  B.addi(1, 1);
  B.cmpi(1, static_cast<int32_t>(Iters));
  B.jcc(guest::Cond::B, Loop);
  B.chk(2);
  B.halt();
  return B.build();
}

void BM_InterpreterThroughput(benchmark::State &State) {
  guest::GuestImage Image = sumLoop(10000, false);
  guest::GuestMemory Mem;
  uint64_t Insts = 0;
  for (auto _ : State) {
    Mem.loadImage(Image);
    guest::GuestCPU Cpu;
    Cpu.reset(Image);
    guest::Interpreter Interp(Mem);
    Insts += Interp.run(Cpu);
  }
  State.SetItemsProcessed(static_cast<int64_t>(Insts));
}
BENCHMARK(BM_InterpreterThroughput);

void BM_EngineDpehThroughput(benchmark::State &State) {
  guest::GuestImage Image = sumLoop(10000, true);
  uint64_t Cycles = 0;
  for (auto _ : State) {
    mda::DpehPolicy Policy(50);
    dbt::Engine Engine(Image, Policy);
    dbt::RunResult R = Engine.run();
    reporting::checkRunCompleted(R, "BM_EngineDpehThroughput");
    Cycles += R.Cycles;
  }
  State.SetItemsProcessed(static_cast<int64_t>(Cycles));
  State.SetLabel("items = simulated cycles");
}
BENCHMARK(BM_EngineDpehThroughput);

void BM_TranslateBlock(benchmark::State &State) {
  guest::GuestImage Image = sumLoop(16, false);
  guest::GuestMemory Mem;
  Mem.loadImage(Image);
  // The hot loop body block.
  dbt::GuestBlock Entry = dbt::discoverBlock(Mem, Image.Entry);
  dbt::GuestBlock Body = dbt::discoverBlock(Mem, Entry.endPc());
  host::CodeSpace Code;
  dbt::Translator Trans(Code);
  uint64_t Insts = 0;
  for (auto _ : State) {
    dbt::Translation T = Trans.translate(
        Body,
        [](uint32_t, const guest::GuestInst &) {
          return dbt::MemPlan::Inline;
        });
    benchmark::DoNotOptimize(T.EndWord);
    Insts += Body.size();
  }
  State.SetItemsProcessed(static_cast<int64_t>(Insts));
}
BENCHMARK(BM_TranslateBlock);

void BM_GuestDecode(benchmark::State &State) {
  guest::GuestImage Image = sumLoop(16, false);
  uint64_t Count = 0;
  for (auto _ : State) {
    size_t Off = 0;
    while (Off < Image.Code.size()) {
      guest::GuestInst I;
      bool Ok = guest::decode(Image.Code.data(), Image.Code.size(), Off, I);
      benchmark::DoNotOptimize(Ok);
      if (!Ok)
        break;
      Off += I.Length;
      ++Count;
    }
  }
  State.SetItemsProcessed(static_cast<int64_t>(Count));
}
BENCHMARK(BM_GuestDecode);

void BM_HostDecode(benchmark::State &State) {
  host::CodeSpace Code;
  {
    host::HostAssembler Asm(Code);
    for (int I = 0; I != 64; ++I)
      host::emitMdaStore(Asm, 4, 1, 2, I);
    Asm.finish();
  }
  uint64_t Count = 0;
  for (auto _ : State) {
    for (uint32_t W = 0; W != Code.size(); ++W) {
      host::HostInst I;
      bool Ok = host::decodeHost(Code.word(W), I);
      benchmark::DoNotOptimize(Ok);
      ++Count;
    }
  }
  State.SetItemsProcessed(static_cast<int64_t>(Count));
}
BENCHMARK(BM_HostDecode);

void BM_CacheModel(benchmark::State &State) {
  MemoryHierarchy Hier;
  RNG Rng(7);
  std::vector<uint64_t> Addrs(4096);
  for (uint64_t &A : Addrs)
    A = Rng.below(1 << 22);
  uint64_t Count = 0;
  for (auto _ : State) {
    uint64_t Sum = 0;
    for (uint64_t A : Addrs)
      Sum += Hier.data(A);
    benchmark::DoNotOptimize(Sum);
    Count += Addrs.size();
  }
  State.SetItemsProcessed(static_cast<int64_t>(Count));
}
BENCHMARK(BM_CacheModel);

void BM_MdaStubGeneration(benchmark::State &State) {
  host::HostInst Faulting =
      host::memInst(host::HostOp::Ldl, 3, 8, 2);
  uint64_t Count = 0;
  for (auto _ : State) {
    host::CodeSpace Code;
    dbt::Translator Trans(Code);
    for (int I = 0; I != 64; ++I) {
      std::optional<dbt::Translator::StubInfo> S =
          Trans.emitStub(Faulting, 0);
      benchmark::DoNotOptimize(S->End);
    }
    Count += 64;
  }
  State.SetItemsProcessed(static_cast<int64_t>(Count));
}
BENCHMARK(BM_MdaStubGeneration);

//===----------------------------------------------------------------------===//
// bench_perf.json: the throughput record the CI perf-smoke job uploads.
// Everything below measures wall clock, so it is advisory, not a figure.
//===----------------------------------------------------------------------===//

double elapsedSeconds(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       T0)
      .count();
}

/// Host-simulator throughput in simulated MIPS: a tight 4-instruction
/// loop (aligned load + add + count-down + branch) so the measurement is
/// dominated by HostMachine::run's per-instruction path: direct-threaded
/// dispatch over CodeSpace's execution view and the skipped fetches
/// within one I-cache line.
double hostSimMips() {
  constexpr uint32_t Iters = 2'000'000;
  host::CodeSpace Code;
  {
    host::HostAssembler Asm(Code);
    Asm.materialize32(1, Iters);
    Asm.materialize32(2, 4096); // 8-byte-aligned scratch address
    host::HostAssembler::Label Loop = Asm.newLabel();
    Asm.bind(Loop);
    Asm.mem(host::HostOp::Ldl, 3, 0, 2);
    Asm.op(host::HostOp::Addq, 4, 3, 4);
    Asm.opl(host::HostOp::Subq, 1, 1, 1);
    Asm.bne(1, Loop);
    Asm.srv(host::SrvFunc::Halt);
  }
  guest::GuestMemory Mem;
  MemoryHierarchy Hier;
  host::CostModel Cost;
  double Best = 0.0;
  for (int Rep = 0; Rep != 3; ++Rep) {
    host::HostMachine Machine(Code, Mem, Hier, Cost);
    auto T0 = std::chrono::steady_clock::now();
    host::ExitInfo E = Machine.run(0);
    double Sec = elapsedSeconds(T0);
    if (E.K != host::ExitInfo::Halt || Sec <= 0.0)
      return 0.0;
    Best = std::max(
        Best, static_cast<double>(Machine.Instructions) / Sec / 1e6);
  }
  return Best;
}

/// Interpreter throughput in simulated guest MIPS.
double interpreterMips() {
  guest::GuestImage Image = sumLoop(300000, false);
  guest::GuestMemory Mem;
  double Best = 0.0;
  for (int Rep = 0; Rep != 3; ++Rep) {
    Mem.loadImage(Image);
    guest::GuestCPU Cpu;
    Cpu.reset(Image);
    guest::Interpreter Interp(Mem);
    auto T0 = std::chrono::steady_clock::now();
    uint64_t Insts = Interp.run(Cpu);
    double Sec = elapsedSeconds(T0);
    if (Sec <= 0.0)
      return 0.0;
    Best = std::max(Best, static_cast<double>(Insts) / Sec / 1e6);
  }
  return Best;
}

/// Wall-clock of a small (benchmark x policy) matrix at a given job
/// count; the jobs=1/jobs=N pair bounds the fan-out win on this machine.
double matrixSeconds(unsigned Jobs) {
  workloads::ScaleConfig Scale;
  Scale.TotalRefs = 60000;
  const char *Names[] = {"164.gzip", "179.art", "410.bwaves", "433.milc"};
  std::vector<reporting::MatrixCell> Cells;
  for (const char *Name : Names) {
    const workloads::BenchmarkInfo *Info = workloads::findBenchmark(Name);
    Cells.push_back(
        {.Info = Info,
         .Spec = {mda::MechanismKind::ExceptionHandling, 50, false, 0,
                  false}});
    Cells.push_back(
        {.Info = Info, .Spec = {mda::MechanismKind::Dpeh, 50, false, 0,
                                false}});
  }
  auto T0 = std::chrono::steady_clock::now();
  reporting::runPolicyMatrixChecked(Cells, Scale, Jobs);
  return elapsedSeconds(T0);
}

/// Hot call/ret kernel (one callee returning alternately to two call
/// sites), same shape as bench/ablation_dispatch's `k.callret`: the
/// dispatch-bound workload where hash dispatch, inline caches, and
/// superblocks show up in wall clock, not just in simulated cycles (the
/// synthesized SPEC programs keep their indirect branches cold).
guest::GuestImage callRetKernel(uint32_t Iters) {
  guest::ProgramBuilder B("k.callret");
  uint32_t Buf = B.dataReserve(64, 8);
  guest::ProgramBuilder::Label F = B.newLabel();
  B.movri(1, 0);
  B.movri(0, static_cast<int32_t>(Buf));
  B.movri(2, 0);
  guest::ProgramBuilder::Label Loop = B.here();
  B.call(F);
  B.call(F);
  B.addi(1, 1);
  B.cmpi(1, static_cast<int32_t>(Iters));
  B.jcc(guest::Cond::B, Loop);
  B.chk(2);
  B.halt();
  B.bind(F);
  B.stl(guest::mem(0, 0), 1);
  B.ldl(3, guest::mem(0, 0));
  B.add(2, 3);
  B.ret();
  return B.build();
}

/// End-to-end engine throughput (host instructions of translated code
/// executed per wall-clock second) on the dispatch-bound kernel under
/// one dispatch configuration.  Every monitor round-trip the mechanisms
/// eliminate is time spent in C++ episode bookkeeping instead of the
/// host simulator, so the mechanisms move this number directly.
double engineDispatchMips(const dbt::EngineConfig &Config) {
  guest::GuestImage Image = callRetKernel(200000);
  double Best = 0.0;
  for (int Rep = 0; Rep != 3; ++Rep) {
    mda::DpehPolicy Policy(50);
    dbt::Engine Engine(Image, Policy, Config);
    auto T0 = std::chrono::steady_clock::now();
    dbt::RunResult R = Engine.run();
    double Sec = elapsedSeconds(T0);
    reporting::checkRunCompleted(R, "engineDispatchMips");
    if (Sec <= 0.0)
      return 0.0;
    Best = std::max(
        Best,
        static_cast<double>(R.Counters.get("host.insts")) / Sec / 1e6);
  }
  return Best;
}

/// Fused-vs-unfused engine throughput and code density on the
/// fusion-dense memcpy kernel (workloads::buildFusionMemcpyKernel): the
/// workload where the peephole fusion table (dbt/FusionRules.h) fires
/// on nearly every hot-loop instruction window.  Returns wall-clock
/// *guest* MIPS (guest instructions retired per wall-clock second —
/// fusion shrinks the host work per guest instruction, so useful
/// throughput is the number that must rise) and the
/// host-instructions-per-guest-instruction density itself.
struct FusionPerf {
  double Mips = 0.0;
  double Hipgi = 0.0;
};

FusionPerf engineFusionPerf(uint32_t Mask) {
  constexpr uint32_t Words = 256, Rounds = 2000;
  guest::GuestImage Image =
      workloads::buildFusionMemcpyKernel(Words, Rounds);
  uint64_t GuestInsts;
  {
    guest::GuestMemory Mem;
    Mem.loadImage(Image);
    guest::GuestCPU Cpu;
    Cpu.reset(Image);
    GuestInsts = guest::Interpreter(Mem).run(Cpu);
  }
  dbt::EngineConfig Config;
  Config.Fusion = Mask != 0;
  Config.FusionMask = Mask;
  FusionPerf P;
  for (int Rep = 0; Rep != 3; ++Rep) {
    mda::DpehPolicy Policy(50);
    dbt::Engine Engine(Image, Policy, Config);
    auto T0 = std::chrono::steady_clock::now();
    dbt::RunResult R = Engine.run();
    double Sec = elapsedSeconds(T0);
    reporting::checkRunCompleted(R, "engineFusionPerf");
    if (Sec <= 0.0)
      return {};
    uint64_t Host = R.Counters.get("host.insts");
    P.Mips =
        std::max(P.Mips, static_cast<double>(GuestInsts) / Sec / 1e6);
    if (GuestInsts != 0)
      P.Hipgi =
          static_cast<double>(Host) / static_cast<double>(GuestInsts);
  }
  return P;
}

void writeBenchPerfJson(const char *Path) {
  double PredecodeMips = hostSimMips();
  double InterpMips = interpreterMips();
  // The fan-out pair must be two *real* measurements: on a one-core
  // default the old `Jobs > 1 ? ... : Serial` shortcut recorded jobs=1
  // with jobs1_seconds == jobsN_seconds, which made the record useless
  // as a regression floor.  Always time at least two jobs.
  unsigned Jobs = std::max(2u, ThreadPool::defaultJobs());
  double Serial = matrixSeconds(1);
  double Fanned = matrixSeconds(Jobs);

  dbt::EngineConfig Off, Hash, Ic, Super, AllOn;
  Hash.HashDispatch = true;
  Ic.InlineCaches = true;
  Super.Superblocks = true;
  AllOn.HashDispatch = AllOn.InlineCaches = AllOn.Superblocks = true;
  double DispatchBase = engineDispatchMips(Off);
  double DispatchHash = engineDispatchMips(Hash);
  double DispatchIc = engineDispatchMips(Ic);
  double DispatchSuper = engineDispatchMips(Super);
  double DispatchAll = engineDispatchMips(AllOn);
  double DispatchGain =
      DispatchBase > 0.0 ? DispatchAll / DispatchBase - 1.0 : 0.0;

  FusionPerf FusionOff = engineFusionPerf(0);
  FusionPerf FusionOn = engineFusionPerf(dbt::FusionMaskAll);
  double FusionGain =
      FusionOff.Mips > 0.0 ? FusionOn.Mips / FusionOff.Mips - 1.0 : 0.0;
  double HipgiReduction =
      FusionOff.Hipgi > 0.0 ? 1.0 - FusionOn.Hipgi / FusionOff.Hipgi
                            : 0.0;

  std::filesystem::create_directories(
      std::filesystem::path(Path).parent_path());
  std::ofstream Out(Path);
  Out << "{\n";
  Out << bench::perfStampJson("  ");
  Out << "  \"host_sim\": {\n";
  Out << "    \"predecode_mips\": " << PredecodeMips << "\n";
  Out << "  },\n";
  Out << "  \"interpreter_mips\": " << InterpMips << ",\n";
  Out << "  \"dispatch\": {\n";
  Out << "    \"baseline_mips\": " << DispatchBase << ",\n";
  Out << "    \"hash_mips\": " << DispatchHash << ",\n";
  Out << "    \"ic_mips\": " << DispatchIc << ",\n";
  Out << "    \"superblock_mips\": " << DispatchSuper << ",\n";
  Out << "    \"all_on_mips\": " << DispatchAll << ",\n";
  Out << "    \"all_on_gain\": " << DispatchGain << "\n";
  Out << "  },\n";
  Out << "  \"fusion\": {\n";
  Out << "    \"off_guest_mips\": " << FusionOff.Mips << ",\n";
  Out << "    \"on_guest_mips\": " << FusionOn.Mips << ",\n";
  Out << "    \"on_gain\": " << FusionGain << ",\n";
  Out << "    \"hipgi_off\": " << FusionOff.Hipgi << ",\n";
  Out << "    \"hipgi_on\": " << FusionOn.Hipgi << ",\n";
  Out << "    \"hipgi_reduction\": " << HipgiReduction << "\n";
  Out << "  },\n";
  Out << "  \"matrix\": {\n";
  Out << "    \"jobs\": " << Jobs << ",\n";
  Out << "    \"jobs1_seconds\": " << Serial << ",\n";
  Out << "    \"jobsN_seconds\": " << Fanned << "\n";
  Out << "  }\n";
  Out << "}\n";
  std::printf("bench_perf: host-sim %.1f MIPS, interpreter %.1f MIPS, "
              "engine dispatch %.1f MIPS baseline vs %.1f all-on "
              "(%+.1f%%), fusion %.1f guest-MIPS off vs %.1f on (%+.1f%%, "
              "host/guest %.3f -> %.3f), matrix %.2fs at jobs=1 vs %.2fs "
              "at jobs=%u -> %s\n",
              PredecodeMips, InterpMips, DispatchBase, DispatchAll,
              DispatchGain * 100.0,
              FusionOff.Mips, FusionOn.Mips, FusionGain * 100.0,
              FusionOff.Hipgi, FusionOn.Hipgi, Serial, Fanned, Jobs,
              Path);
}

} // namespace

int main(int argc, char **argv) {
  // --perf-json [path] (default results/bench_perf.json) records the
  // throughput artifact after the google-benchmark suite runs; remaining
  // flags pass through to google-benchmark.
  const char *PerfJsonPath = nullptr;
  int Out = 1;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--perf-json") == 0) {
      PerfJsonPath = "results/bench_perf.json";
      if (I + 1 < argc && argv[I + 1][0] != '-')
        PerfJsonPath = argv[++I];
      continue;
    }
    argv[Out++] = argv[I];
  }
  argv[Out] = nullptr;
  argc = Out;
  if (PerfJsonPath)
    bench::requireOptimizedBuildForPerfJson("micro_components");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (PerfJsonPath)
    writeBenchPerfJson(PerfJsonPath);
  return 0;
}
