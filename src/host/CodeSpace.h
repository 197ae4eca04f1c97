//===- host/CodeSpace.h - Host code memory (the code cache arena) -*- C++ -*-===//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The backing store for translated host code: a growable arena of 32-bit
/// instruction words with a virtual byte base address (used by the I-cache
/// model, so that the *placement* of translated code and out-of-line MDA
/// stubs has the spatial-locality consequences the paper's code
/// rearrangement targets).  Patching an individual word is how the
/// misalignment exception handler redirects a faulting memory operation
/// to its MDA code sequence (paper Fig. 5), and how block chaining links
/// translated blocks.
///
/// Each word is *predecoded* when it enters the arena: the host machine
/// simulator executes the same instruction billions of times, so
/// decoding once at install instead of once per simulated cycle is the
/// dominant host-simulator optimization.  The invariant maintained here
/// is `Decoded[i] == decodeHost(Words[i])` at all times; every mutation
/// path (append, patch — including hook-torn writes — and clear)
/// re-derives the entry from the word actually stored, so stub
/// patching, chaining, unchaining, adaptive reverts and cache flushes
/// can never leave a stale instruction behind.
///
//===----------------------------------------------------------------------===//

#ifndef MDABT_HOST_CODESPACE_H
#define MDABT_HOST_CODESPACE_H

#include "host/HostEncoding.h"

#include <cassert>
#include <cstdint>
#include <functional>
#include <vector>

namespace mdabt {
namespace host {

/// A growable arena of host instruction words.
class CodeSpace {
public:
  /// One predecoded arena word.  Valid is false when the stored word
  /// does not decode (e.g. a torn write caught before rollback); such a
  /// word must never become executable, and the host machine asserts on
  /// it exactly as it would have on a per-cycle decode failure.
  struct DecodedWord {
    HostInst Inst;
    bool Valid = false;
  };

  /// \p BaseAddr is the virtual byte address of word 0 (only the I-cache
  /// model consumes it).
  explicit CodeSpace(uint64_t BaseAddr = 0x40000000)
      : Base(BaseAddr) {}

  /// Append one word; returns its word index.
  uint32_t append(uint32_t Word) {
    Words.push_back(Word);
    Decoded.emplace_back();
    Decoded.back().Valid = decodeHost(Word, Decoded.back().Inst);
    return static_cast<uint32_t>(Words.size() - 1);
  }

  uint32_t size() const { return static_cast<uint32_t>(Words.size()); }

  uint32_t word(uint32_t Index) const {
    assert(Index < Words.size() && "code fetch out of range");
    return Words[Index];
  }

  /// Interception hook for patch(): fault injection uses it to model
  /// dropped or torn code-cache writes.  Returning false drops the
  /// write; the hook may rewrite \p Word (a torn write).  Reads are
  /// never intercepted, so callers can verify a patch by reading it
  /// back (which the hardened engine does for every critical patch).
  using PatchHook = std::function<bool(uint32_t Index, uint32_t &Word)>;
  void setPatchHook(PatchHook H) { Hook = std::move(H); }

  /// Overwrite an existing word (exception-handler patching, chaining).
  /// The predecoded view is re-derived from the word actually stored —
  /// which the hook may have rewritten (torn write) — never from the
  /// requested one.
  void patch(uint32_t Index, uint32_t Word) {
    assert(Index < Words.size() && "code patch out of range");
    if (Hook && !Hook(Index, Word))
      return;
    Words[Index] = Word;
    Decoded[Index].Valid = decodeHost(Word, Decoded[Index].Inst);
  }

  /// Predecoded view of word \p Index (see the invariant above).  The
  /// reference is invalidated by append() (vector growth): callers that
  /// run code while the arena grows — the host machine, whose fault
  /// handler emits stubs — must copy the instruction out.
  const DecodedWord &decodedWord(uint32_t Index) const {
    assert(Index < Decoded.size() && "decoded fetch out of range");
    return Decoded[Index];
  }

  /// Virtual byte address of word \p Index.
  uint64_t byteAddr(uint32_t Index) const {
    return Base + static_cast<uint64_t>(Index) * 4;
  }

  /// Discard all code (a full code-cache flush, Dynamo-style).  Callers
  /// must ensure no translated code is executing.
  void clear() {
    Words.clear();
    Decoded.clear();
  }

  /// Drop every word from \p Size on: an emission abandoned before
  /// anything refers to its words.
  void truncate(uint32_t Size) {
    assert(Size <= Words.size() && "truncate past the arena tail");
    Words.resize(Size);
    Decoded.resize(Size);
  }

  const uint32_t *data() const { return Words.data(); }

private:
  uint64_t Base;
  std::vector<uint32_t> Words;
  /// Predecoded mirror of Words (same size, same indices).
  std::vector<DecodedWord> Decoded;
  PatchHook Hook;
};

} // namespace host
} // namespace mdabt

#endif // MDABT_HOST_CODESPACE_H
