#ifndef IGEPA_IO_INSTANCE_IO_H_
#define IGEPA_IO_INSTANCE_IO_H_

#include <istream>
#include <ostream>
#include <string>

#include "core/arrangement.h"
#include "core/instance.h"
#include "util/result.h"

namespace igepa {
namespace io {

/// Serializes an instance to a sectioned CSV file:
///
///   igepa,<version>,<num_events>,<num_users>,<beta>
///   kernel,<id>                            (v2: the utility kernel scoring
///                                           this instance's columns)
///   event,<id>,<capacity>
///   user,<id>,<capacity>,<bid;bid;...>
///   conflict,<a>,<b>                       (one line per conflicting pair)
///   interest,<event>,<user>,<value>        (bid pairs only — the only pairs
///                                           algorithms ever evaluate)
///   degree,<user>,<value>
///
/// Functional components are materialized: conflicts become an explicit
/// matrix, interest a table over bid pairs, interaction a degree table. The
/// re-read instance is therefore *algorithm-equivalent* to the original (all
/// reachable σ/SI/D evaluations agree) even when the original used implicit
/// representations (hash interest, interval conflicts). Live drift state
/// (UpdateInterest / ApplyGraphEdge overlays) is folded into the tables.
///
/// Version 2 (docs/FORMATS.md) additionally pins the objective: a `kernel`
/// record naming the core::UtilityKernel the instance scores columns with.
/// The writer emits the lowest sufficient version — instances on the default
/// kernel keep producing byte-identical v1 files — and v1 files read back
/// onto the default kernel, so pre-kernel instances solve exactly as before.
Status WriteInstanceCsv(const core::Instance& instance,
                        const std::string& path);

/// Stream-based variant; `label` names the destination in error messages.
///
/// `dense_interest` writes an interest line for EVERY (event, user) pair
/// instead of just the current bid pairs, and formats every double
/// round-trip exactly ("%.17g") instead of the sparse format's historical
/// fixed-17 digits, which lose ulps below 0.1. The bid-pair default is all
/// any solve of the *frozen* instance can evaluate; a dense file also fixes
/// SI on pairs a later re-registration may bid on. Serve checkpoints do not
/// use it (they store SI by kind, docs/FORMATS.md §7); its user is the
/// end-to-end benchmark's output checker, which parses its own copy of a
/// served instance from a dense file.
Status WriteInstanceCsv(const core::Instance& instance, std::ostream& out,
                        const std::string& label,
                        bool dense_interest = false);

/// Reads an instance written by WriteInstanceCsv.
Result<core::Instance> ReadInstanceCsv(const std::string& path);

/// Stream-based variant (checkpoint loading); `label` names the source in
/// error messages.
Result<core::Instance> ReadInstanceCsv(std::istream& in,
                                       const std::string& label);

/// Serializes an arrangement: header line "arrangement,<nv>,<nu>" then one
/// "pair,<event>,<user>" line per pair.
Status WriteArrangementCsv(const core::Arrangement& arrangement,
                           const std::string& path);

/// Reads an arrangement written by WriteArrangementCsv.
Result<core::Arrangement> ReadArrangementCsv(const std::string& path);

}  // namespace io
}  // namespace igepa

#endif  // IGEPA_IO_INSTANCE_IO_H_
