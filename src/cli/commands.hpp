// The swr command-line tool's subcommands, as a testable library.
//
// Each command reads FASTA inputs, drives the library, and writes a
// deterministic text report to the given stream. The `tools/swr` binary is
// a thin main() over run_command; tests call run_command directly.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace swr::align {
struct Scoring;
}
namespace swr::seq {
class Alphabet;
}

namespace swr::cli {

class ArgParser;

/// The linear-gap scheme from --match/--mismatch/--gap over the
/// alphabet's default (BLOSUM62 with gap -8 for protein), validated.
align::Scoring scoring_from(const ArgParser& args, const seq::Alphabet& ab);

/// Executes one subcommand. Returns a process exit code (0 = success).
/// Errors (bad usage, unreadable files) are reported on `err` with a
/// non-zero return, not by exception.
///
/// Commands:
///   align <a.fa> <b.fa>   pairwise alignment (local/global/fitting)
///   scan <query.fa> <db>  top-k database scan with E-values; the database
///                         is FASTA text or a prebuilt .swdb store, and
///                         --batch serves many queries through the async
///                         scan service
///   swdb build|info       build / inspect .swdb binary database stores
///   serve --db <db.swdb>  network scan daemon (wire protocol, QoS, caches)
///   client <query.fa>     drive a running daemon over the wire protocol
///   translate <dna.fa>    genetic-code translation (one frame or all six)
///   orfs <dna.fa>         open reading frames on both strands
///   design                FPGA design-space table
///   help                  usage
int run_command(const std::string& command, const std::vector<std::string>& args,
                std::ostream& out, std::ostream& err);

/// The usage text (also printed by `help`).
std::string usage();

}  // namespace swr::cli
