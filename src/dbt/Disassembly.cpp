//===- dbt/Disassembly.cpp ------------------------------------------------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//

#include "dbt/Disassembly.h"

#include "host/HostEncoding.h"
#include "support/Format.h"

#include <algorithm>

using namespace mdabt;
using namespace mdabt::dbt;

std::string mdabt::dbt::dumpTranslation(const Translation &T,
                                        const host::CodeSpace &Code) {
  std::string Out =
      format("translation of guest block %06x (generation %u%s)\n",
             T.GuestPc, T.Generation, T.Valid ? "" : ", superseded");
  for (uint32_t W = T.EntryWord; W != T.EndWord; ++W) {
    host::HostInst Inst;
    bool Ok = host::decodeHost(Code.word(W), Inst);
    Out += format("  %6u: ", W);
    Out += Ok ? host::disassembleHost(Inst, W) : "<undecodable>";
    if (std::optional<uint32_t> Pc = T.siteAt(W))
      Out += format("    ; may trap (guest %06x)", *Pc);
    if (std::any_of(T.Patches.begin(), T.Patches.end(),
                    [W](const StubPatch &P) { return P.Word == W; }))
      Out += "    ; patched by the exception handler";
    if (std::optional<size_t> I = T.exitAt(W)) {
      const TranslationRecord::RelExit &X = T.Rec->Exits[*I];
      if (!X.Direct)
        Out += "    ; indirect exit";
      else
        Out += format("    ; exit to guest %06x%s", X.TargetGuestPc,
                      T.Chained[*I] ? " (chained)" : "");
    }
    Out += '\n';
  }
  return Out;
}
