#ifndef CQAC_ENGINE_COLUMNAR_H_
#define CQAC_ENGINE_COLUMNAR_H_

#include <cstdint>
#include <vector>

namespace cqac {

/// A canonical database in column-major coded form: per relation, one
/// contiguous `uint32_t` block laid out column-by-column (all of column
/// 0's codes, then column 1's, ...).  The codes are ValueDictionary ranks
/// of the frozen rational values.
///
/// Layout is fixed at construction — a CanonicalFreezer knows every
/// relation's row count up front (one row per owning subgoal) — so
/// freezing writes codes in place and never resizes.  Column-major is
/// what the selection-vector kernels in coded_eval.h want: filtering a
/// column against a bound code walks one dense 4-byte stream.
///
/// Relation ids are assigned in AddRelation order; name lookup goes
/// through CanonicalFreezer::FindRelation.
class ColumnarInstance {
 public:
  /// Adds a relation of `arity` with a fixed `rows` capacity; returns its
  /// id.  Zero-arity relations carry no codes but keep their row count,
  /// so emptiness stays observable.
  uint32_t AddRelation(int arity, uint32_t rows) {
    const uint32_t id = static_cast<uint32_t>(rels_.size());
    rels_.push_back({arity, rows, static_cast<uint32_t>(codes_.size())});
    codes_.resize(codes_.size() +
                  static_cast<size_t>(arity) * static_cast<size_t>(rows));
    return id;
  }

  int Arity(uint32_t rel) const { return rels_[rel].arity; }
  uint32_t RowCount(uint32_t rel) const { return rels_[rel].rows; }
  size_t NumRelations() const { return rels_.size(); }

  /// Column `col` of relation `rel`: `RowCount(rel)` contiguous codes.
  const uint32_t* Column(uint32_t rel, int col) const {
    const Rel& r = rels_[rel];
    return codes_.data() + r.offset +
           static_cast<size_t>(col) * static_cast<size_t>(r.rows);
  }

  uint32_t At(uint32_t rel, uint32_t row, int col) const {
    return Column(rel, col)[row];
  }

  void Set(uint32_t rel, uint32_t row, int col, uint32_t code) {
    const Rel& r = rels_[rel];
    codes_[r.offset + static_cast<size_t>(col) * static_cast<size_t>(r.rows) +
           row] = code;
  }

 private:
  struct Rel {
    int arity;
    uint32_t rows;
    uint32_t offset;  // into codes_
  };
  std::vector<Rel> rels_;
  std::vector<uint32_t> codes_;
};

}  // namespace cqac

#endif  // CQAC_ENGINE_COLUMNAR_H_
