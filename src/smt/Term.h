//===- smt/Term.h - LIA term language --------------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The term language of the in-tree SMT-lite solver: quantified linear
/// integer arithmetic (Presburger arithmetic) with quasi-affine div/mod by
/// integer literals, booleans, and if-then-else. Effect analysis (§5 of the
/// paper) lowers its proof obligations into this language; Solver.h decides
/// them by quantifier elimination (Cooper's algorithm).
///
/// Terms are immutable shared-pointer trees. The builders perform light
/// normalization (constant folding); full simplification lives in
/// Rewrite.cpp.
///
/// All nodes are *hash-consed* through a process-wide interner: structurally
/// identical subterms share one allocation, the structural hash and the free
/// variable set are computed once at construction, and equality of interned
/// nodes degenerates to a pointer comparison. The interner is sharded by
/// structural hash (each shard has its own lock) so concurrent compile
/// sessions intern without serializing on one mutex. A shard may be flushed
/// when it grows past its cap (losing sharing, never correctness — equals()
/// falls back to a deep compare), so pointer inequality does NOT imply
/// structural inequality. See the "Performance" and "Threading model"
/// sections of DESIGN.md.
///
//===----------------------------------------------------------------------===//

#ifndef EXO_SMT_TERM_H
#define EXO_SMT_TERM_H

#include "support/Error.h"
#include "support/Json.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace exo {
namespace smt {

/// The two sorts of the logic.
enum class Sort { Int, Bool };

/// Term node discriminator.
enum class TermKind {
  IntConst,  ///< integer literal
  BoolConst, ///< true / false
  Var,       ///< free or bound variable
  Add,       ///< n-ary integer sum
  Mul,       ///< Scalar * operand (quasi-affine restriction)
  Div,       ///< floor division by positive literal
  Mod,       ///< floor modulo by positive literal
  Eq,        ///< integer equality
  Le,        ///< integer <=
  Lt,        ///< integer <
  Not,       ///< boolean negation
  And,       ///< n-ary conjunction
  Or,        ///< n-ary disjunction
  Implies,   ///< binary implication
  Ite,       ///< if-then-else (int- or bool-sorted)
  Forall,    ///< universal quantifier over an int variable
  Exists,    ///< existential quantifier over an int variable
};

class Term;
/// Shared immutable term handle.
using TermRef = std::shared_ptr<const Term>;

/// A solver variable. Identity is the numeric Id; the name is only for
/// printing. Bound and free variables use the same representation.
struct TermVar {
  unsigned Id;
  std::string Name;
  Sort VarSort;

  bool operator==(const TermVar &O) const { return Id == O.Id; }
};

/// Allocates a globally fresh variable.
TermVar freshVar(const std::string &Name, Sort S);

/// Fence for fresh-variable allocation: every variable minted by freshVar()
/// after this call has an Id >= the returned mark. Callers bracket a
/// computation with two marks to detect whether a result mentions variables
/// created inside the bracket (the effect cache uses this to reject
/// summaries that would leak per-extraction unknowns).
unsigned freshVarMark();

/// One node in the term tree.
class Term {
public:
  TermKind kind() const { return Kind; }
  Sort sort() const { return TheSort; }

  /// Integer literal payload; valid for IntConst.
  int64_t intValue() const {
    assert(Kind == TermKind::IntConst && "not an int literal");
    return Value;
  }

  /// Boolean literal payload; valid for BoolConst.
  bool boolValue() const {
    assert(Kind == TermKind::BoolConst && "not a bool literal");
    return Value != 0;
  }

  /// Variable payload; valid for Var, Forall, Exists (the bound var).
  const TermVar &var() const {
    assert((Kind == TermKind::Var || Kind == TermKind::Forall ||
            Kind == TermKind::Exists) &&
           "no variable payload");
    return Variable;
  }

  /// The literal multiplier of a Mul, or divisor/modulus of Div/Mod.
  int64_t scalar() const {
    assert((Kind == TermKind::Mul || Kind == TermKind::Div ||
            Kind == TermKind::Mod) &&
           "no scalar payload");
    return Value;
  }

  /// Child terms (operands; the quantified body is operand 0).
  const std::vector<TermRef> &operands() const { return Operands; }
  const TermRef &operand(unsigned I) const {
    assert(I < Operands.size() && "operand index out of range");
    return Operands[I];
  }
  unsigned numOperands() const { return Operands.size(); }

  /// Structural equality (bound variables compared by Id, so alpha-variant
  /// terms are *not* equal; fresh-renaming keeps Ids apart by construction).
  /// Interned nodes compare by pointer; the deep fallback only runs for
  /// nodes that straddle an interner flush.
  bool equals(const Term &O) const;

  /// Structural hash, computed once at construction from the (already
  /// hashed) children. Unequal hashes imply structural inequality.
  size_t hash() const { return Hash; }

  /// Sorted, deduplicated ids of this term's free variables, cached at
  /// construction.
  const std::vector<unsigned> &freeVarIds() const { return FreeIds; }

  /// O(log n) free-variable membership test.
  bool hasFreeVar(unsigned Id) const {
    return std::binary_search(FreeIds.begin(), FreeIds.end(), Id);
  }

  /// Whether any subterm is an int-sorted if-then-else; lets the prenex
  /// converter skip its lowering scan entirely.
  bool hasIntIte() const { return IntIte; }

  /// Renders an SMT-LIB-flavoured s-expression, for debugging and tests.
  std::string str() const;

  // Internal constructor; use the factory functions below (they route all
  // construction through the interner). Computes the cached hash, free-var
  // set, and int-ite flag from the children's caches.
  Term(TermKind K, Sort S, int64_t V, TermVar Var, std::vector<TermRef> Ops);

private:
  TermKind Kind;
  Sort TheSort;
  int64_t Value;      // literal / scalar payload
  TermVar Variable;   // variable payload
  std::vector<TermRef> Operands;
  size_t Hash;                  // structural hash (cached)
  std::vector<unsigned> FreeIds; // sorted free-variable ids (cached)
  bool IntIte;                  // subtree contains an int-sorted Ite
};

/// Counters for the process-wide term interner.
struct TermInternerStats {
  uint64_t Hits = 0;    ///< constructions that reused an existing node
  uint64_t Misses = 0;  ///< constructions that allocated a new node
  uint64_t Flushes = 0; ///< times the table was cleared on overflow
  size_t Live = 0;      ///< nodes currently retained by the table (a gauge)

  /// The counts accumulated since \p Before; Live stays this snapshot's.
  TermInternerStats since(const TermInternerStats &Before) const;
  support::Json toJson() const;
};

/// Snapshot of the interner counters.
TermInternerStats termInternerStats();

/// Drops every node retained by the interner table. Live TermRefs stay
/// valid (they hold their own shared_ptr refs); only future sharing is
/// lost. Mostly for benchmarks and tests.
void clearTermInterner();

//===----------------------------------------------------------------------===//
// Factory functions. All perform constant folding where trivially possible.
//===----------------------------------------------------------------------===//

TermRef intConst(int64_t V);
TermRef boolConst(bool V);
TermRef mkTrue();
TermRef mkFalse();
TermRef mkVar(const TermVar &V);

TermRef add(std::vector<TermRef> Ops);
TermRef add(TermRef A, TermRef B);
TermRef sub(TermRef A, TermRef B);
TermRef neg(TermRef A);
/// Scalar * A (the quasi-affine multiplication).
TermRef mul(int64_t Scalar, TermRef A);
/// Floor division by a positive literal.
TermRef div(TermRef A, int64_t Divisor);
/// Floor modulo by a positive literal.
TermRef mod(TermRef A, int64_t Modulus);

TermRef eq(TermRef A, TermRef B);
TermRef ne(TermRef A, TermRef B);
TermRef le(TermRef A, TermRef B);
TermRef lt(TermRef A, TermRef B);
TermRef ge(TermRef A, TermRef B);
TermRef gt(TermRef A, TermRef B);

TermRef mkNot(TermRef A);
TermRef mkAnd(std::vector<TermRef> Ops);
TermRef mkAnd(TermRef A, TermRef B);
TermRef mkOr(std::vector<TermRef> Ops);
TermRef mkOr(TermRef A, TermRef B);
TermRef implies(TermRef A, TermRef B);
TermRef iff(TermRef A, TermRef B);
TermRef ite(TermRef C, TermRef T, TermRef E);
TermRef forall(const TermVar &V, TermRef Body);
TermRef forall(const std::vector<TermVar> &Vs, TermRef Body);
TermRef exists(const TermVar &V, TermRef Body);
TermRef exists(const std::vector<TermVar> &Vs, TermRef Body);

/// Collects the free variables of \p T into \p Out (deduplicated, in first
/// occurrence order).
void collectFreeVars(const TermRef &T, std::vector<TermVar> &Out);

/// Substitutes free occurrences of variable \p V by \p Replacement.
TermRef substVar(const TermRef &T, const TermVar &V, TermRef Replacement);

} // namespace smt
} // namespace exo

#endif // EXO_SMT_TERM_H
