// The model's switches, one struct that every layer reads the fields it
// needs from. Each toggle reproduces one of the paper's ablations.
#pragma once

namespace gpuhms {

enum class QueueDiscipline {
  GG1,  // Kingman, the paper's choice
  MM1,  // Markovian alternative (for the Sec. III-C3 comparison)
};

struct ModelOptions {
  // Fig. 7: addressing-mode instructions and the Eq. 3 replay swap. Without
  // it a target is assumed to issue exactly what the sample issued.
  bool detailed_instruction_counting = true;
  // Fig. 8/9: per-bank G/G/1 queues (Eq. 6-9). Without them DRAM latency
  // degenerates to an unloaded constant, as prior work assumes.
  bool queuing_model = true;
  // Fig. 8: bank requests follow the detected address mapping. Without it
  // the trace analysis spreads DRAM requests round-robin over the banks.
  bool address_mapping = true;
  // Eq. 8: service times by row-buffer outcome. Without queuing, it picks
  // the constant: the unloaded outcome mix with it, the row-miss latency
  // without.
  bool row_buffer_model = true;
  // Queue discipline for the DRAM model; MM1 exists to reproduce the
  // paper's argument that Markovian queues misfit GPU arrival processes.
  QueueDiscipline queue_discipline = QueueDiscipline::GG1;
  // Anchor predictions on the sample's measured/predicted ratio — this is
  // the "quantified correlation" use of the sample placement.
  bool anchor_to_sample = true;

  // The paper's "baseline" configuration of Sec. V-B.
  static ModelOptions baseline() {
    ModelOptions o;
    o.detailed_instruction_counting = false;
    o.queuing_model = false;
    o.address_mapping = false;
    o.row_buffer_model = false;
    return o;
  }
};

}  // namespace gpuhms
