#include "assembly/component_iterator.h"

#include <algorithm>

namespace cobra {

Status ComponentIterator::CheckObject(const ObjectData& obj,
                                      const TemplateNode* node) const {
  if (node->expected_type != kAnyTypeId &&
      obj.type_id != node->expected_type) {
    return Status::Corruption(
        "object " + std::to_string(obj.oid) + " has type " +
        std::to_string(obj.type_id) + ", template node '" + node->label +
        "' expects " + std::to_string(node->expected_type));
  }
  for (const auto& edge : node->children) {
    if (static_cast<size_t>(edge.ref_slot) >= obj.refs.size()) {
      return Status::Corruption("object " + std::to_string(obj.oid) +
                                " has no reference slot " +
                                std::to_string(edge.ref_slot) +
                                " required by template node '" + node->label +
                                "'");
    }
  }
  return Status::OK();
}

Result<std::vector<ComponentRef>> ComponentIterator::Expand(
    const ObjectData& obj, const TemplateNode* node,
    bool prioritize_predicates) const {
  std::vector<ComponentRef> refs;
  COBRA_RETURN_IF_ERROR(ExpandInto(obj, node, prioritize_predicates, &refs));
  return refs;
}

Status ComponentIterator::ExpandInto(const ObjectData& obj,
                                     const TemplateNode* node,
                                     bool prioritize_predicates,
                                     std::vector<ComponentRef>* out) const {
  COBRA_RETURN_IF_ERROR(CheckObject(obj, node));
  out->clear();
  for (size_t i = 0; i < node->children.size(); ++i) {
    const auto& edge = node->children[i];
    Oid child_oid = obj.refs[edge.ref_slot];
    if (child_oid == kInvalidOid) continue;
    out->push_back(ComponentRef{edge.child, child_oid, edge.ref_slot,
                                static_cast<int>(i)});
  }
  if (prioritize_predicates) {
    // A stable sort by rejection probability is an unstable sort that breaks
    // ties by template order, which child_index already is; std::sort needs
    // no scratch buffer.
    std::sort(out->begin(), out->end(),
              [](const ComponentRef& a, const ComponentRef& b) {
                const double ra = a.node->rejection_probability();
                const double rb = b.node->rejection_probability();
                return ra != rb ? ra > rb : a.child_index < b.child_index;
              });
  }
  return Status::OK();
}

}  // namespace cobra
