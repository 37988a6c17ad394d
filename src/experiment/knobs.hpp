// The key=value knobs of the simulation platform, parsed and validated in
// one place. charisma_sim, the benches and the tests build every scenario,
// run and multi-cell world through parse_knobs, so the derived rules (the
// world link budget, Doppler from speed, the field size of a layout, the
// default interference of hex cells) exist once.
//
//   auto knobs = experiment::parse_knobs({"layout=hex", "cells=7",
//                                         "reuse=3", "band=700"});
//   mac::CellularWorld world(knobs.world, factory);
//
// A knob no scenario could honour, or a combination of knobs no world can
// build, is refused when it is parsed: std::invalid_argument whose message
// starts "<knob>=".
#pragma once

#include <string>
#include <vector>

#include "common/config.hpp"
#include "experiment/runner.hpp"
#include "mac/cellular_world.hpp"
#include "protocols/factory.hpp"

namespace charisma::experiment {

struct Knobs {
  /// The single-cell scenario (what a cells=1 run simulates), the warmup
  /// and measurement windows, the replication count and the CHARISMA
  /// options.
  RunSpec run{};
  /// The multi-cell world, built and validated at any cells= (one cell
  /// runs no world, but a value no world could honour is still refused).
  /// `world.params.seed` is the raw seed= knob; runners derive their
  /// replication seeds from it.
  mac::CellularConfig world{};
  /// protocol= resolved: one protocol, or the paper's six for "all".
  std::vector<protocols::ProtocolId> protocols;
};

/// Every knob parse_knobs accepts.
const std::vector<std::string>& knob_names();

/// Parses `config`; a key that is neither a knob nor in `caller_keys` (the
/// front end's own keys, which it reads itself) is rejected by name.
Knobs parse_knobs(const common::KeyValueConfig& config,
                  const std::vector<std::string>& caller_keys = {});

/// Parses a knob list of "key=value" tokens.
Knobs parse_knobs(const std::vector<std::string>& args);

}  // namespace charisma::experiment
