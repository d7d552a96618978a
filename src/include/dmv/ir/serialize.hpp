#pragma once

// JSON serialization of SDFGs, for dumping analysis sessions to disk and
// for interoperability with external viewers. The writer emits a stable,
// human-diffable layout; symbolic expressions serialize to their string
// form and parse back through dmv::symbolic::parse.

#include <cstdint>
#include <string>

#include "dmv/ir/sdfg.hpp"

namespace dmv::ir {

/// Serializes the whole SDFG to a JSON document.
std::string to_json(const Sdfg& sdfg);

/// FNV-1a over every field of the IR: expressions by their interned
/// structural hash, strings by util::fnv1a_string, counts, ids and
/// enums as words. The value depends only on the program, never on
/// interning order or thread count, so it names artifacts on disk.
/// Memlets hash by their effective_volume(), so a program and its
/// from_json(to_json()) round trip hash alike: the JSON form carries
/// every hashed field, writing DataDescriptor::start_offset,
/// MapInfo::label and MapInfo::collapsed only when they differ from
/// their defaults (0, the node's label, false).
std::uint64_t structural_hash(const Sdfg& sdfg);

}  // namespace dmv::ir
