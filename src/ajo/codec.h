// Binary codec for the AJO protocol ("the transferable unit between the
// UNICORE components", §4.1).
//
// Layout of one action:  u8 type | varint id | str name | body
// Bodies are defined per class (see codec.cpp); AbstractJobObject bodies
// recurse. The encoding is canonical — field order is fixed and lengths
// are minimal — so SignedAjo signatures are stable.
#pragma once

#include <memory>

#include "ajo/action.h"
#include "util/bytes.h"
#include "util/result.h"

namespace unicore::ajo {

/// Serializes any action, including its header.
void encode_action(util::ByteWriter& w, const AbstractAction& action);
util::Bytes encode_action(const AbstractAction& action);

/// Inverse of encode_action; reconstructs the dynamic type from the tag.
/// The action must occupy all of `wire`.
util::Result<std::unique_ptr<AbstractAction>> decode_action(
    util::ByteView wire);

}  // namespace unicore::ajo
