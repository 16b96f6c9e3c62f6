// Pipeline: the image-processing DAG of stages (the paper's (S, E)).
#pragma once

#include <string>
#include <vector>

#include "graph/digraph.hpp"
#include "ir/stage.hpp"

namespace fusedp {

struct InputImage {
  std::string name;
  Box domain;
};

class Pipeline {
 public:
  explicit Pipeline(std::string name) : name_(std::move(name)) {
    // Stage references handed out by add_stage() must stay valid while the
    // pipeline is being built; kMaxNodes bounds the stage count anyway.
    stages_.reserve(kMaxNodes);
  }

  const std::string& name() const { return name_; }

  int add_input(const std::string& name,
                const std::vector<std::int64_t>& extents);
  // Creates an empty kMap stage; fill via StageBuilder.
  Stage& add_stage(const std::string& name,
                   const std::vector<std::int64_t>& extents);
  Stage& add_reduction(const std::string& name,
                       const std::vector<std::int64_t>& extents);

  // Validates the DAG, builds the stage graph (with reachability closure) and
  // consumer lists.  Must be called once after all stages are defined;
  // stages marked is_output plus all sinks become live-outs.
  void finalize();
  bool finalized() const { return finalized_; }

  int num_stages() const { return static_cast<int>(stages_.size()); }
  int num_inputs() const { return static_cast<int>(inputs_.size()); }
  const Stage& stage(int id) const { return stages_[static_cast<std::size_t>(id)]; }
  const InputImage& input(int id) const {
    return inputs_[static_cast<std::size_t>(id)];
  }
  const std::vector<Stage>& stages() const { return stages_; }
  const std::vector<InputImage>& inputs() const { return inputs_; }

  const Digraph& graph() const { return graph_; }
  // Stage ids whose output escapes the pipeline.
  const std::vector<int>& outputs() const { return outputs_; }
  bool is_liveout(int id) const { return stage(id).is_output; }

  // Producer box of `p` (input image or stage domain).
  const Box& producer_domain(ProducerRef p) const {
    return p.is_input ? inputs_[static_cast<std::size_t>(p.id)].domain
                      : stages_[static_cast<std::size_t>(p.id)].domain;
  }

  // Sum over stages of domain volume (elements); total intermediate +
  // live-out data the unfused pipeline materializes.
  std::int64_t total_volume() const;

 private:
  std::string name_;
  bool finalized_ = false;
  std::vector<InputImage> inputs_;
  std::vector<Stage> stages_;
  std::vector<int> outputs_;
  Digraph graph_;
};

}  // namespace fusedp
