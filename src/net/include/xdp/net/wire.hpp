// Byte-level codecs for the net-layer pieces of a checkpoint image
// (DESIGN.md §11): sections, names, and in-flight messages. The encoding
// rides on ckpt::Writer/Reader, so everything here inherits the snapshot
// file's little-endian framing and bounds-checked decoding.
//
// Round-trip exactness: Triplet canonicalizes on construction and a
// Section stores canonical triplets, so encode→decode reproduces the
// identical value (operator== holds), which the checkpoint tests assert.
#pragma once

#include "xdp/ckpt/io.hpp"
#include "xdp/net/message.hpp"

namespace xdp::net::wire {

void putSection(ckpt::Writer& w, const sec::Section& s);
sec::Section getSection(ckpt::Reader& r);

void putName(ckpt::Writer& w, const Name& n);
Name getName(ckpt::Reader& r);

/// A TransferKind byte; throws CkptError on a value outside the enum.
TransferKind getKind(ckpt::Reader& r);

void putMessage(ckpt::Writer& w, const Message& m);
Message getMessage(ckpt::Reader& r);

}  // namespace xdp::net::wire
