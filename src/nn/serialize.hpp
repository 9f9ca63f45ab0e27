// Binary checkpoint format for model parameters.
//
// Layout: magic "PFCKPT1\n", u64 param count, then per param:
// u32 name length, name bytes, u64 rows, u64 cols, rows*cols f32 (LE).
// Loading validates names (the length before the bytes) and shapes against
// the live model so that a checkpoint trained with different
// hyper-parameters fails loudly, and rejects non-finite weights.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "nn/module.hpp"

namespace passflow::nn {

void save_params(std::ostream& out, const std::vector<Param*>& params);
void load_params(std::istream& in, const std::vector<Param*>& params);

void save_params_file(const std::string& path,
                      const std::vector<Param*>& params);
void load_params_file(const std::string& path,
                      const std::vector<Param*>& params);

}  // namespace passflow::nn
