#include "engine/query_builder.h"

namespace cre {

QueryBuilder& QueryBuilder::Scan(std::string table) {
  plan_ = PlanNode::Scan(std::move(table));
  return *this;
}

QueryBuilder& QueryBuilder::DetectScan(std::string store) {
  plan_ = PlanNode::DetectScan(std::move(store));
  return *this;
}

QueryBuilder& QueryBuilder::Filter(ExprPtr predicate) {
  plan_ = PlanNode::Filter(plan_, std::move(predicate));
  return *this;
}

QueryBuilder& QueryBuilder::Project(const std::vector<std::string>& columns) {
  std::vector<ProjectionItem> items;
  items.reserve(columns.size());
  for (const auto& c : columns) items.push_back({c, Col(c)});
  plan_ = PlanNode::Project(plan_, std::move(items));
  return *this;
}

QueryBuilder& QueryBuilder::JoinWith(const QueryBuilder& right,
                                     std::string left_key,
                                     std::string right_key) {
  plan_ = PlanNode::Join(plan_, right.plan_, std::move(left_key),
                         std::move(right_key));
  return *this;
}

QueryBuilder& QueryBuilder::SemanticSelect(std::string column,
                                           std::string query,
                                           std::string model,
                                           float threshold) {
  plan_ = PlanNode::SemanticSelect(plan_, std::move(column), std::move(query),
                                   std::move(model), threshold);
  return *this;
}

QueryBuilder& QueryBuilder::SemanticJoinWith(const QueryBuilder& right,
                                             std::string left_key,
                                             std::string right_key,
                                             std::string model,
                                             float threshold) {
  plan_ = PlanNode::SemanticJoin(plan_, right.plan_, std::move(left_key),
                                 std::move(right_key), std::move(model),
                                 threshold);
  return *this;
}

QueryBuilder& QueryBuilder::SemanticGroupBy(std::string column,
                                            std::string model,
                                            float threshold) {
  plan_ = PlanNode::SemanticGroupBy(plan_, std::move(column),
                                    std::move(model), threshold);
  return *this;
}

QueryBuilder& QueryBuilder::Aggregate(std::vector<std::string> group_keys,
                                      std::vector<AggSpec> aggs) {
  plan_ = PlanNode::Aggregate(plan_, std::move(group_keys), std::move(aggs));
  return *this;
}

QueryBuilder& QueryBuilder::OrderBy(std::string key, bool ascending) {
  plan_ = PlanNode::Sort(plan_, std::move(key), ascending);
  return *this;
}

QueryBuilder& QueryBuilder::Limit(std::size_t n) {
  plan_ = PlanNode::Limit(plan_, n);
  return *this;
}

Result<TablePtr> QueryBuilder::Execute() {
  if (plan_ == nullptr) {
    return Status::InvalidArgument("empty query: call Scan() first");
  }
  return engine_->Execute(plan_);
}

Result<TablePtr> QueryBuilder::ExecuteUnoptimized() {
  if (plan_ == nullptr) {
    return Status::InvalidArgument("empty query: call Scan() first");
  }
  return engine_->ExecuteUnoptimized(plan_);
}

Result<std::string> QueryBuilder::Explain() {
  if (plan_ == nullptr) {
    return Status::InvalidArgument("empty query: call Scan() first");
  }
  return engine_->Explain(plan_);
}

}  // namespace cre
