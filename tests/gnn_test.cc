// Tests for the GNN layers and encoder stacks: shapes, gradient flow,
// message-passing semantics, attention properties, GIN injectivity
// mechanics, Graph2Vec determinism, and encoder-kind wiring.

#include <cmath>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "gnn/encoder.h"
#include "nn/adam.h"

namespace dquag {
namespace {

FeatureGraph TestGraph() {
  // 4 nodes: a path 0-1-2 plus an isolated-ish node 3 linked to 0.
  FeatureGraph g(4);
  g.AddUndirectedEdge(0, 1);
  g.AddUndirectedEdge(1, 2);
  g.AddUndirectedEdge(0, 3);
  return g;
}

TEST(GcnLayerTest, OutputShape) {
  Rng rng(1);
  GcnLayer layer(TestGraph(), 8, 6, rng);
  VarPtr h = MakeVar(Tensor::Randn({3, 4, 8}, rng));
  EXPECT_EQ(layer.Forward(h)->value().shape(), (Shape{3, 4, 6}));
  EXPECT_EQ(layer.in_dim(), 8);
  EXPECT_EQ(layer.out_dim(), 6);
}

TEST(GcnLayerTest, PropagatesInformationAlongEdges) {
  Rng rng(2);
  FeatureGraph g(2);
  g.AddUndirectedEdge(0, 1);
  GcnLayer layer(g, 4, 4, rng);
  // Two inputs differing only at node 1; node 0's output must change too
  // (it aggregates node 1), proving messages flow.
  Tensor a = Tensor::Zeros({1, 2, 4});
  Tensor b = a;
  b(0, 1, 0) = 5.0f;
  Tensor ya = layer.Forward(MakeVar(a))->value();
  Tensor yb = layer.Forward(MakeVar(b))->value();
  float delta_node0 = 0.0f;
  for (int64_t k = 0; k < 4; ++k) {
    delta_node0 += std::abs(ya(0, 0, k) - yb(0, 0, k));
  }
  EXPECT_GT(delta_node0, 1e-4f);
}

TEST(GcnLayerTest, DisconnectedNodesDoNotInteract) {
  Rng rng(3);
  FeatureGraph g(3);
  g.AddUndirectedEdge(0, 1);  // node 2 disconnected
  GcnLayer layer(g, 4, 4, rng);
  Tensor a = Tensor::Randn({1, 3, 4}, rng);
  Tensor b = a;
  for (int64_t k = 0; k < 4; ++k) b(0, 2, k) += 3.0f;  // perturb node 2
  Tensor ya = layer.Forward(MakeVar(a))->value();
  Tensor yb = layer.Forward(MakeVar(b))->value();
  for (int64_t v = 0; v < 2; ++v) {
    for (int64_t k = 0; k < 4; ++k) {
      EXPECT_NEAR(ya(0, v, k), yb(0, v, k), 1e-5f) << "node " << v;
    }
  }
}

TEST(GatLayerTest, OutputShape) {
  Rng rng(4);
  GatLayer layer(TestGraph(), 8, 6, rng);
  VarPtr h = MakeVar(Tensor::Randn({2, 4, 8}, rng));
  EXPECT_EQ(layer.Forward(h)->value().shape(), (Shape{2, 4, 6}));
  EXPECT_EQ(layer.in_dim(), 8);
  EXPECT_EQ(layer.out_dim(), 6);
}

TEST(GatLayerTest, AttentionIsNormalizedPerDestination) {
  Rng rng(5);
  FeatureGraph g = TestGraph();
  GatLayer layer(g, 4, 4, rng);
  // Attention capture is an explicit opt-in: pass a recorder.
  AttentionRecorder recorder;
  layer.Forward(MakeVar(Tensor::Randn({1, 4, 4}, rng)), &recorder);
  ASSERT_EQ(recorder.layers().size(), 1u);
  EXPECT_EQ(recorder.layers()[0].layer, &layer);
  const std::vector<float>& alpha = recorder.layers()[0].alpha;
  ASSERT_EQ(alpha.size(), layer.arc_dst().size());
  // Sum of attention over arcs sharing a destination == 1.
  std::vector<float> sums(4, 0.0f);
  for (size_t e = 0; e < layer.arc_dst().size(); ++e) {
    sums[static_cast<size_t>(layer.arc_dst()[e])] += alpha[e];
  }
  for (int v = 0; v < 4; ++v) EXPECT_NEAR(sums[static_cast<size_t>(v)], 1.0f, 1e-4f);
}

TEST(GatLayerTest, ForwardWithoutRecorderCapturesNothing) {
  Rng rng(5);
  GatLayer layer(TestGraph(), 4, 4, rng);
  // The plain Forward takes no recorder and must leave a passed-in one
  // untouched — attention capture never happens implicitly.
  AttentionRecorder recorder;
  layer.Forward(MakeVar(Tensor::Randn({1, 4, 4}, rng)));
  EXPECT_TRUE(recorder.layers().empty());
}

TEST(GatLayerTest, GradientsReachParameters) {
  Rng rng(6);
  GatLayer layer(TestGraph(), 4, 4, rng);
  VarPtr h = MakeVar(Tensor::Randn({2, 4, 4}, rng), /*requires_grad=*/true);
  Backward(ag::SumAll(ag::Square(layer.Forward(h))));
  for (const VarPtr& p : layer.Parameters()) {
    ASSERT_TRUE(p->has_grad());
    EXPECT_GT(SumAll(Abs(p->grad())), 0.0f)
        << "parameter received zero gradient";
  }
  EXPECT_TRUE(h->has_grad());
}

TEST(GinLayerTest, EpsilonIsLearnable) {
  Rng rng(7);
  GinLayer layer(TestGraph(), 4, 4, rng);
  EXPECT_FLOAT_EQ(layer.epsilon(), 0.0f);
  VarPtr h = MakeVar(Tensor::Randn({2, 4, 4}, rng));
  Adam adam(layer.Parameters(), /*learning_rate=*/0.05f);
  for (int i = 0; i < 5; ++i) {
    adam.ZeroGrad();
    Backward(ag::SumAll(ag::Square(layer.Forward(h))));
    adam.Step();
  }
  EXPECT_NE(layer.epsilon(), 0.0f);
}

TEST(GinLayerTest, SumAggregationDistinguishesMultisets) {
  // GIN with sum aggregation must distinguish one neighbour with value 2
  // from two neighbours with value 1 (mean aggregation cannot).
  Rng rng(8);
  FeatureGraph one_neighbour(2);
  one_neighbour.AddUndirectedEdge(0, 1);
  FeatureGraph two_neighbours(3);
  two_neighbours.AddUndirectedEdge(0, 1);
  two_neighbours.AddUndirectedEdge(0, 2);

  GinLayer layer_a(one_neighbour, 2, 4, rng);
  Rng rng2(8);  // identical weights
  GinLayer layer_b(two_neighbours, 2, 4, rng2);

  Tensor ha = Tensor::Zeros({1, 2, 2});
  ha(0, 1, 0) = 2.0f;  // one neighbour of node 0 with value 2
  Tensor hb = Tensor::Zeros({1, 3, 2});
  hb(0, 1, 0) = 1.0f;  // two neighbours with value 1 each
  hb(0, 2, 0) = 1.0f;

  Tensor ya = layer_a.Forward(MakeVar(ha))->value();
  Tensor yb = layer_b.Forward(MakeVar(hb))->value();
  // Node 0 sees identical multiset SUMS => identical output (sum = 2).
  for (int64_t k = 0; k < 4; ++k) {
    EXPECT_NEAR(ya(0, 0, k), yb(0, 0, k), 1e-5f);
  }
}

TEST(Graph2VecTest, DeterministicHistogram) {
  Rng rng(9);
  Graph2VecEncoder enc(TestGraph(), 8, rng);
  const float row[4] = {0.1f, 0.5f, 0.9f, 0.3f};
  const auto h1 = enc.WlHistogram(row);
  const auto h2 = enc.WlHistogram(row);
  EXPECT_EQ(h1, h2);
  // L2-normalized.
  double norm = 0.0;
  for (float v : h1) norm += static_cast<double>(v) * v;
  EXPECT_NEAR(norm, 1.0, 1e-4);
}

TEST(Graph2VecTest, HistogramSeparatesDifferentRows) {
  Rng rng(10);
  Graph2VecEncoder enc(TestGraph(), 8, rng);
  const float clean[4] = {0.1f, 0.5f, 0.9f, 0.3f};
  const float anomalous[4] = {0.1f, 0.5f, 8.0f, 0.3f};  // out-of-range cell
  EXPECT_NE(enc.WlHistogram(clean), enc.WlHistogram(anomalous));
}

TEST(Graph2VecTest, ForwardShape) {
  Rng rng(11);
  Graph2VecEncoder enc(TestGraph(), 8, rng);
  VarPtr x = MakeVar(Tensor::RandUniform({5, 4}, rng, 0.0f, 1.0f));
  EXPECT_EQ(enc.Forward(x)->value().shape(), (Shape{5, 4, 8}));
}

TEST(EncoderKindTest, ParseAndName) {
  EXPECT_EQ(*ParseEncoderKind("gat+gin"), EncoderKind::kGatGin);
  EXPECT_EQ(*ParseEncoderKind("GCN"), EncoderKind::kGcn);
  EXPECT_EQ(*ParseEncoderKind("graph2vec"), EncoderKind::kGraph2Vec);
  EXPECT_FALSE(ParseEncoderKind("transformer").ok());
  EXPECT_EQ(EncoderKindName(EncoderKind::kGcnGin), "GCN+GIN");
}

/// All encoder kinds produce [B, N, H] and propagate gradients.
class EncoderKindParamTest : public ::testing::TestWithParam<EncoderKind> {};

TEST_P(EncoderKindParamTest, ForwardShapeAndGradients) {
  Rng rng(12);
  GnnEncoderConfig config;
  config.kind = GetParam();
  config.hidden_dim = 16;
  config.num_layers = 4;
  GnnEncoder encoder(TestGraph(), config, rng);

  VarPtr raw = MakeVar(Tensor::RandUniform({3, 4}, rng, 0.0f, 1.0f));
  VarPtr tokens = MakeVar(Tensor::Randn({3, 4, 16}, rng));
  VarPtr z = encoder.Forward(tokens, raw);
  ASSERT_EQ(z->value().shape(), (Shape{3, 4, 16}));

  Backward(ag::SumAll(ag::Square(z)));
  int64_t with_grad = 0;
  for (const VarPtr& p : encoder.Parameters()) {
    if (p->has_grad() && SumAll(Abs(p->grad())) > 0.0f) ++with_grad;
  }
  EXPECT_GT(with_grad, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, EncoderKindParamTest,
    ::testing::Values(EncoderKind::kGraph2Vec, EncoderKind::kGcn,
                      EncoderKind::kGcnGat, EncoderKind::kGcnGin,
                      EncoderKind::kGatGin));

TEST(EncoderTest, GatGinStackAlternates) {
  Rng rng(13);
  GnnEncoderConfig config;  // default GAT+GIN, 4 layers
  GnnEncoder encoder(TestGraph(), config, rng);
  // Two GAT layers in a 4-layer GAT-GIN-GAT-GIN stack.
  EXPECT_EQ(encoder.gat_layers().size(), 2u);
}

// The engine forward of each layer kind equals its tape forward, with the
// output's ELU (which the engine applies inside the pass that writes the
// output) on and off. Node 4 is isolated, so GIN's un-looped graph gives
// it no in-arcs and its aggregate is (1 + eps) h alone.
TEST(LayerEngineTest, InferForwardMatchesTapeWithAndWithoutElu) {
  FeatureGraph graph(5);
  graph.AddUndirectedEdge(0, 1);
  graph.AddUndirectedEdge(1, 2);
  graph.AddUndirectedEdge(0, 3);
  Rng rng(15);
  const GcnLayer gcn(graph, 8, 6, rng);
  const GatLayer gat(graph, 8, 6, rng);
  const GinLayer gin(graph, 8, 6, rng);
  const Tensor x = Tensor::Randn({3, 5, 8}, rng);
  NoGradGuard guard;
  for (const GnnLayer* layer : {static_cast<const GnnLayer*>(&gcn),
                                static_cast<const GnnLayer*>(&gat),
                                static_cast<const GnnLayer*>(&gin)}) {
    const Tensor tape = layer->Forward(MakeVar(x))->value();
    for (const bool elu : {false, true}) {
      InferenceContext ctx;
      const Tensor& engine = layer->InferForward(x, ctx, elu);
      const Tensor expected = elu ? Elu(tape) : tape;
      ASSERT_EQ(engine.shape(), expected.shape());
      EXPECT_TRUE(engine.AllClose(expected, 1e-5f))
          << (layer == &gcn ? "GCN" : layer == &gat ? "GAT" : "GIN")
          << (elu ? " elu" : " identity");
    }
  }
}

TEST(EncoderTest, InferenceUnderNoGradBuildsNoTape) {
  Rng rng(14);
  GnnEncoderConfig config;
  config.hidden_dim = 8;
  GnnEncoder encoder(TestGraph(), config, rng);
  NoGradGuard guard;
  VarPtr tokens = MakeVar(Tensor::Randn({2, 4, 8}, rng));
  VarPtr raw = MakeVar(Tensor::RandUniform({2, 4}, rng, 0.0f, 1.0f));
  VarPtr z = encoder.Forward(tokens, raw);
  EXPECT_FALSE(z->has_backward());
}

}  // namespace
}  // namespace dquag
