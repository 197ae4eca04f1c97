//===- benchmark/src/Probes.cpp -------------------------------------------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//

#include "Probes.h"

#include "analysis/AlignmentAnalysis.h"
#include "analysis/CfgRecovery.h"
#include "dbt/Engine.h"
#include "dbt/GuestBlock.h"
#include "dbt/Translator.h"
#include "guest/GuestMemory.h"
#include "host/HostAssembler.h"
#include "host/HostMachine.h"
#include "support/CacheModel.h"

#include <algorithm>
#include <atomic>
#include <chrono>

using namespace mdabt;
using namespace mdabt::benchmark;

namespace {

/// Keeps probed results observable so the calls cannot be elided.
std::atomic<uint64_t> Sink{0};

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

} // namespace

double mdabt::benchmark::median(std::vector<double> Samples) {
  if (Samples.empty())
    return 0.0;
  std::sort(Samples.begin(), Samples.end());
  size_t M = Samples.size() / 2;
  return Samples.size() % 2 ? Samples[M]
                            : (Samples[M - 1] + Samples[M]) / 2.0;
}

double mdabt::benchmark::probeMemInitMs(const guest::GuestImage &Image,
                                        int Reps) {
  std::vector<double> Ms;
  for (int R = 0; R != Reps; ++R) {
    auto T0 = Clock::now();
    guest::GuestMemory Mem;
    Mem.loadImage(Image);
    Ms.push_back(msSince(T0));
    Sink.fetch_add(Mem.data()[Image.Entry], std::memory_order_relaxed);
  }
  return median(Ms);
}

double mdabt::benchmark::probeHashMs(const guest::GuestImage &Image,
                                     int Reps) {
  guest::GuestMemory Mem;
  Mem.loadImage(Image);
  std::vector<double> Ms;
  for (int R = 0; R != Reps; ++R) {
    auto T0 = Clock::now();
    uint64_t H = dbt::fnv1a(Mem.data(), Mem.size());
    Ms.push_back(msSince(T0));
    Sink.fetch_add(H, std::memory_order_relaxed);
  }
  return median(Ms);
}

double mdabt::benchmark::probeHostSimMips(int Reps) {
  constexpr uint32_t Iters = 1'000'000;
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
  host::CostModel Cost;
  std::vector<double> Mips;
  for (int R = 0; R != Reps; ++R) {
    MemoryHierarchy Hier;
    host::HostMachine Machine(Code, Mem, Hier, Cost);
    auto T0 = Clock::now();
    host::ExitInfo E = Machine.run(0);
    double Ms = msSince(T0);
    if (E.K != host::ExitInfo::Halt || Ms <= 0.0)
      return 0.0;
    Mips.push_back(static_cast<double>(Machine.Instructions) / Ms / 1e3);
  }
  return median(Mips);
}

double mdabt::benchmark::probeAlignMs(
    const std::vector<const guest::GuestImage *> &Images) {
  if (Images.empty())
    return 0.0;
  auto T0 = Clock::now();
  for (const guest::GuestImage *Image : Images)
    Sink.fetch_add(analysis::analyzeAlignment(*Image).NumAligned,
                   std::memory_order_relaxed);
  return msSince(T0) / static_cast<double>(Images.size());
}

double mdabt::benchmark::probeCfgMs(
    const std::vector<const guest::GuestImage *> &Images) {
  if (Images.empty())
    return 0.0;
  auto T0 = Clock::now();
  for (const guest::GuestImage *Image : Images)
    Sink.fetch_add(analysis::recoverCfg(*Image).NumEdges,
                   std::memory_order_relaxed);
  return msSince(T0) / static_cast<double>(Images.size());
}

double mdabt::benchmark::probeTranslateUs(
    const std::vector<const guest::GuestImage *> &Images) {
  double Ms = 0.0;
  uint64_t Blocks = 0;
  for (const guest::GuestImage *Image : Images) {
    guest::GuestMemory Mem;
    Mem.loadImage(*Image);
    std::vector<dbt::GuestBlock> Decoded;
    analysis::CfgResult Cfg = analysis::recoverCfg(Mem, Image->Entry);
    for (const auto &[Pc, Block] : Cfg.Blocks)
      Decoded.push_back(dbt::discoverBlock(Mem, Pc));
    host::CodeSpace Code;
    dbt::Translator Trans(Code);
    auto Plan = [](uint32_t, const guest::GuestInst &) {
      return dbt::MemPlan::Normal;
    };
    auto T0 = Clock::now();
    for (const dbt::GuestBlock &Block : Decoded)
      Sink.fetch_add(Trans.translate(Block, Plan).EndWord,
                     std::memory_order_relaxed);
    Ms += msSince(T0);
    Blocks += Decoded.size();
  }
  return Blocks ? Ms * 1e3 / static_cast<double>(Blocks) : 0.0;
}
