#include "netalign/squares_view.hpp"

#include <stdexcept>

namespace netalign {

std::string to_string(SquaresMode mode) {
  switch (mode) {
    case SquaresMode::kExplicit:
      return "explicit";
    case SquaresMode::kImplicit:
      return "implicit";
    case SquaresMode::kAuto:
      return "auto";
  }
  return "?";
}

SquaresMode squares_mode_from_string(const std::string& name) {
  if (name == "explicit") return SquaresMode::kExplicit;
  if (name == "implicit") return SquaresMode::kImplicit;
  if (name == "auto") return SquaresMode::kAuto;
  throw std::invalid_argument("unknown squares mode: " + name);
}

SquaresBackend build_squares_backend(const NetAlignProblem& p,
                                     const SquaresBackendOptions& options) {
  SquaresBackend backend;
  std::vector<eid_t> ptr = squares_row_ptr(p);
  backend.nnz = ptr.back();
  backend.explicit_bytes = explicit_squares_bytes(ptr);

  ImplicitSquares::BuildOptions bo;
  bo.transpose_support = options.transpose_support;
  bo.num_chunks = options.num_chunks;
  // `auto` leaves explicit only when that is over budget AND the implicit
  // structure would actually be smaller; with nnz(S) below the chunk
  // tables' |E_L| entries per chunk, implicit would cost more memory.
  const bool implicit =
      options.mode == SquaresMode::kImplicit ||
      (options.mode == SquaresMode::kAuto &&
       backend.explicit_bytes > options.budget_bytes &&
       ImplicitSquares::estimate_structure_bytes(ptr, bo) <
           backend.explicit_bytes);
  if (implicit) {
    backend.implicit = ImplicitSquares::build(p, std::move(ptr), bo);
  } else {
    backend.matrix.emplace(SquaresMatrix::build(p, std::move(ptr)));
  }
  return backend;
}

}  // namespace netalign
