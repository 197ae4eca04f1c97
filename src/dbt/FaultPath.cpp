//===- dbt/FaultPath.cpp --------------------------------------------------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//

#include "dbt/FaultPath.h"

#include <algorithm>

using namespace mdabt;
using namespace mdabt::dbt;
using namespace mdabt::host;

FaultPath::FaultPath(CodeSpace &Code, guest::GuestMemory &Mem,
                     CodeCache &Cache, MdaPolicy &Policy, obs::Tracer Trace,
                     uint32_t MaxWatchdogTrips)
    : Code(Code), Mem(Mem), Cache(Cache), Policy(Policy), Trace(Trace),
      MaxWatchdogTrips(MaxWatchdogTrips), Stubs(Code) {}

void FaultPath::spurious(uint32_t BlockPc, uint32_t Word, uint32_t Class) {
  ++S.SpuriousTraps;
  Trace.emit(obs::TraceEventKind::TrapSpurious, 0, BlockPc, Word, Class);
}

std::pair<Translation *, std::optional<uint32_t>>
FaultPath::site(uint32_t Word) const {
  Translation *T = Cache.owner(Word);
  if (!T)
    return {nullptr, std::nullopt};
  return {T, T->siteAt(Word)};
}

// -- the trap path -----------------------------------------------------------

bool FaultPath::storming(uint32_t Word, uint64_t Insts) {
  if (Word != LastTrapWord || Insts - LastTrapInsts > 1) {
    ConsecutiveTraps = 0; // a new word, or the guest moved in between
    LastTrapWord = Word;
  }
  ++ConsecutiveTraps;
  LastTrapInsts = Insts;
  return ConsecutiveTraps > WatchdogTrapK;
}

FaultPath::Delivery FaultPath::deliver(const FaultInfo &F) {
  if (F.HostPc >= Code.size() ||
      Code.word(F.HostPc) != encodeHost(F.Inst)) {
    // The word no longer holds the faulting instruction (already
    // patched, flushed, or reused).
    spurious(0, F.HostPc, 0);
    return {FaultAction::Retry};
  }
  auto [T, Site] = site(F.HostPc);
  if (!T) {
    // The word matches but no live translation owns it (flushed and not
    // yet reused): emulate so the guest still makes progress.
    spurious(0, F.HostPc, 1);
    return {FaultAction::Fixup};
  }
  if (!Site) {
    spurious(T->GuestPc, F.HostPc, 2);
    return {FaultAction::Retry};
  }
  uint32_t InstPc = *Site;
  ++T->FaultCount;
  Trace.emit(obs::TraceEventKind::TrapTaken, InstPc, T->GuestPc, F.HostPc,
             T->FaultCount);
  FaultDecision D = Policy.onFault(InstPc, T->GuestPc, T->FaultCount);
  if (!D.PatchStub)
    return {FaultAction::Fixup};

  // Exception-handling method (paper Fig. 5): generate the MDA code
  // sequence in the code cache and patch the offending instruction.
  bool Adaptive = D.AdaptiveStub;
  if (Adaptive && NextCounterCell + 4 > Mem.size()) {
    // Runtime counter cells exhausted: degrade to a plain stub rather
    // than corrupting guest memory.
    Adaptive = false;
    ++S.StubDowngrades;
  }
  Translator::AdaptiveProbe Probe{NextCounterCell, MailboxAddr,
                                  D.RevertThreshold};
  std::optional<Translator::StubInfo> Stub =
      Stubs.emitStub(F.Inst, F.HostPc, Adaptive ? &Probe : nullptr);
  if (!Stub)
    return {FaultAction::Fixup}; // too far to branch to: emulate instead
  if (Adaptive) {
    // The revertible stub of paper Fig. 8 (right) claims its counter
    // cell; the record keeps the original word for the revert.
    Mem.store(NextCounterCell, 4, 0);
    NextCounterCell += 4;
  }
  Trace.emit(obs::TraceEventKind::StubEmitted, InstPc, T->GuestPc,
             Stub->Entry, Adaptive ? 1 : 0);
  // The stub's return reaches farther than this redirect, so the
  // redirect is always in range once the stub exists.
  std::optional<uint32_t> Br = branchTo(F.HostPc, Stub->Entry);
  if (!Br || !Cache.patchVerified(F.HostPc, *Br)) {
    // The redirect did not stick; the original instruction is still in
    // place.  Emulate this occurrence and let a later trap retry the
    // patch (or the watchdog escalate).
    return {FaultAction::Fixup};
  }
  Cache.addStub(*T, F.HostPc, Stub->Entry, Stub->End, Adaptive);
  ++S.Patches;
  LastPatch = F;
  return {FaultAction::Retry, T, InstPc, Stub->Entry, D.Supersede};
}

FaultPath::Escalation FaultPath::escalate(const FaultInfo &F) {
  ++S.WatchdogTrips;
  ConsecutiveTraps = 0;
  if (S.WatchdogTrips > MaxWatchdogTrips)
    return {/*Storm=*/true};
  auto [T, Site] = site(F.HostPc);
  if (!T) {
    spurious(0, F.HostPc, 3);
    return {};
  }
  uint32_t BlockPc = T->GuestPc;
  uint32_t InstPc = Site.value_or(0);
  uint32_t Rung = std::min(++LadderRungOf[BlockPc], 3u);
  Trace.emit(obs::TraceEventKind::LadderRung, InstPc, BlockPc, Rung,
             S.WatchdogTrips);
  if (Rung == 3) {
    pin(BlockPc, Pin::Ladder);
    Policy.onWatchdogEscalation(BlockPc, 0, 3);
    return {false, T, 3};
  }
  // Rung 1 force-inlines the storming site (rearrangement); rung 2, or
  // rung 1 without a known site, every site of the block
  // (retranslation).
  if (Rung == 1 && InstPc != 0) {
    ForceInline.insert(InstPc);
    ++S.LadderRearranges;
  } else {
    T->forEachSite([&](uint32_t Pc) { ForceInline.insert(Pc); });
    Rung = 2;
    ++S.LadderRetranslations;
  }
  Policy.onWatchdogEscalation(BlockPc, InstPc, Rung);
  return {false, T, Rung};
}

bool FaultPath::pollRevert() {
  if (!claimed())
    return false;
  uint32_t Posted = static_cast<uint32_t>(Mem.load(MailboxAddr, 4));
  if (Posted == 0)
    return false;
  Mem.store(MailboxAddr, 4, 0);
  uint32_t FaultWord = Posted - 1;
  // Only an unreverted adaptive patch at the posted word is revertible:
  // a stale post (the word since reverted, re-patched plain, or flushed)
  // is ignored.
  Translation *T = Cache.owner(FaultWord);
  auto Revertible = [&](const StubPatch &P) {
    return P.Word == FaultWord && P.Adaptive && !P.Reverted;
  };
  if (!T || std::none_of(T->Patches.begin(), T->Patches.end(), Revertible))
    return false;
  uint32_t Original = T->Rec->Words[FaultWord - T->EntryWord];
  if (!Cache.patchVerified(FaultWord, Original))
    return false; // revert failed; the stub stays in place and stays correct
  T->revert(FaultWord);
  Trace.emit(obs::TraceEventKind::StubReverted,
             T->siteAt(FaultWord).value_or(0), T->GuestPc, FaultWord, 0);
  ++S.Reverts;
  return true;
}

void FaultPath::scrubRuntime() {
  if (claimed())
    Mem.zeroRange(guest::layout::RuntimeBase, NextCounterCell);
}

// -- the degradation ledger --------------------------------------------------

void FaultPath::pin(uint32_t Pc, Pin Why) {
  InterpOnly.insert(Pc);
  // An oversize pin is a capacity decision, not a degradation: it stays
  // out of the ladder's count.
  if (Why == Pin::Oversize) {
    ++S.OversizedPins;
    return;
  }
  S.SmcChurnPins += Why == Pin::SmcChurn;
  ++S.LadderInterpPins;
}

uint32_t FaultPath::translateFailed(uint32_t Pc) {
  uint32_t Attempt = ++TranslateFailsAt[Pc];
  if (Attempt >= TranslateRetryLimit)
    pin(Pc, Pin::TranslateRetries);
  return Attempt;
}

void FaultPath::smcInvalidated(uint32_t Pc, uint32_t Limit) {
  uint32_t Count = ++SmcInvalsAt[Pc];
  if (Limit == 0 || Count < Limit || pinned(Pc))
    return;
  // Per-block churn containment: a block rewritten this often is cheaper
  // to interpret (rung 3 of the degradation ladder) — the interpreter
  // fetches fresh bytes every instruction, so SMC is free there.
  pin(Pc, Pin::SmcChurn);
  Trace.emit(obs::TraceEventKind::SmcChurnPin, 0, Pc, Count, 0);
}
