#ifndef CRE_ENGINE_QUERY_BUILDER_H_
#define CRE_ENGINE_QUERY_BUILDER_H_

#include <string>
#include <vector>

#include "engine/engine.h"

namespace cre {

/// Fluent, declarative query construction over an Engine — the user-facing
/// "specify only WHAT" surface. Example (the Fig. 2 query):
///
///   auto result = QueryBuilder(&engine)
///       .Scan("products")
///       .Filter(Gt(Col("price"), Lit(20.0)))
///       .SemanticJoinWith(
///           QueryBuilder(&engine).Scan("kb_category")
///               .Filter(Eq(Col("object"), Lit("clothes"))),
///           "type_label", "subject", "shop_model", 0.85f)
///       .SemanticJoinWith(
///           QueryBuilder(&engine).DetectScan("shop_images")
///               .Filter(And(Gt(Col("date_taken"), Lit(Value::Date(19300))),
///                           Gt(Col("objects_in_image"), Lit(2)))),
///           "type_label", "object_label", "shop_model", 0.85f)
///       .Execute();
class QueryBuilder {
 public:
  explicit QueryBuilder(Engine* engine) : engine_(engine) {}

  QueryBuilder& Scan(std::string table);
  QueryBuilder& DetectScan(std::string store);
  QueryBuilder& Filter(ExprPtr predicate);
  /// Keeps (and orders) the named columns.
  QueryBuilder& Project(const std::vector<std::string>& columns);
  QueryBuilder& JoinWith(const QueryBuilder& right, std::string left_key,
                         std::string right_key);
  QueryBuilder& SemanticSelect(std::string column, std::string query,
                               std::string model, float threshold);
  QueryBuilder& SemanticJoinWith(const QueryBuilder& right,
                                 std::string left_key, std::string right_key,
                                 std::string model, float threshold);
  QueryBuilder& SemanticGroupBy(std::string column, std::string model,
                                float threshold);
  QueryBuilder& Aggregate(std::vector<std::string> group_keys,
                          std::vector<AggSpec> aggs);
  QueryBuilder& OrderBy(std::string key, bool ascending = true);
  QueryBuilder& Limit(std::size_t n);

  /// The logical plan built so far (null until a scan seeds it).
  const PlanPtr& plan() const { return plan_; }

  /// Optimize + execute.
  Result<TablePtr> Execute();
  /// Execute exactly as written.
  Result<TablePtr> ExecuteUnoptimized();
  Result<std::string> Explain();

 private:
  Engine* engine_;
  PlanPtr plan_;
};

}  // namespace cre

#endif  // CRE_ENGINE_QUERY_BUILDER_H_
